package qaoac

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

func TestFacadeQASMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := MustRandomRegular(6, 3, rng)
	res, err := Compile(&Problem{G: g, MaxCut: 1}, P1Params(0.5, 0.2), Melbourne15(), PresetIC.Options(rng))
	if err != nil {
		t.Fatal(err)
	}
	src := ExportQASM(res.Circuit)
	back, err := ImportQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Circuit.Len() {
		t.Errorf("round trip %d → %d gates", res.Circuit.Len(), back.Len())
	}
}

func TestFacadeDrawAndDurations(t *testing.T) {
	c := circuit.New(2).Append(circuit.NewH(0), circuit.NewCNOT(0, 1))
	art := DrawCircuit(c)
	if !strings.Contains(art, "⊕") || !strings.Contains(art, "q1:") {
		t.Errorf("draw output:\n%s", art)
	}
	d := IBMDurations()
	if got := c.ExecutionTime(d); got != 350 {
		t.Errorf("execution time = %v, want 350", got)
	}
}

func TestFacadePeepholeAndOptimalSwaps(t *testing.T) {
	c := circuit.New(2).Append(circuit.NewH(0), circuit.NewH(0))
	if got := Peephole(c); got.Len() != 0 {
		t.Errorf("peephole left %d gates", got.Len())
	}
}

func TestFacadeDeviceJSON(t *testing.T) {
	data, err := json.Marshal(Melbourne15())
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeviceFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.NQubits() != 15 {
		t.Errorf("loaded %d qubits", d.NQubits())
	}
	if Falcon27().NQubits() != 27 {
		t.Error("Falcon27 missing")
	}
}

func TestFacadeIsing(t *testing.T) {
	np, off2 := IsingNumberPartition([]float64{1, 1})
	if off2 != 2 {
		t.Errorf("partition offset = %v", off2)
	}
	if e := np.Energy(0b01); e != -2 {
		t.Errorf("balanced partition energy = %v, want -2", e)
	}
	rng := rand.New(rand.NewSource(2))
	res, err := CompileIsing(np, P1Params(0.4, 0.2), Melbourne15(), PresetVIC.Options(rng))
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth <= 0 {
		t.Error("degenerate ising compile")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.Append(circuit.NewH(q))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {0, 3}} {
		c.Append(circuit.NewCPhase(e[0], e[1], 0.5))
	}
	for q := 0; q < 4; q++ {
		c.Append(circuit.NewRX(q, 0.4))
	}
	if d := CommutationDepth(c); d >= c.Depth() {
		t.Errorf("commutation depth %d not below naive %d", d, c.Depth())
	}
	if groups := CommutingGroups(c); len(groups) == 0 {
		t.Error("no commuting groups found")
	}
	res, err := CompileCircuit(c, Tokyo20(), PresetIC.Options(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	if err := Tokyo20().VerifyCompliant(res.Circuit); err != nil {
		t.Error(err)
	}
}

func TestFacadeExtConfigs(t *testing.T) {
	// Defaults must be sane and runnable at tiny scale.
	lv := DefaultExtLevels()
	lv.Instances, lv.Levels = 2, []int{1}
	if _, err := ExtLevels(context.Background(), lv); err != nil {
		t.Error(err)
	}
	dv := DefaultExtDevices()
	dv.Instances = 2
	if _, err := ExtDevices(context.Background(), dv); err != nil {
		t.Error(err)
	}
}
