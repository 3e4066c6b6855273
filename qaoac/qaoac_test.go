package qaoac

import (
	"math"
	"math/rand"
	"testing"
)

// End-to-end exercise of the public API: generate, compile with every
// preset, simulate, sample, and compare against the analytic expectation.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := MustRandomRegular(8, 3, rng)
	prob, err := NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta, val, err := OptimizeP1(g)
	if err != nil {
		t.Fatal(err)
	}
	if val <= float64(g.M())/2 {
		t.Errorf("optimized ⟨C⟩ %v not above uniform %v", val, float64(g.M())/2)
	}
	dev := Melbourne15()
	for _, preset := range Presets {
		res, err := Compile(prob, P1Params(gamma, beta), dev, preset.Options(rng))
		if err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
		if res.Depth <= 0 || res.GateCount <= 0 {
			t.Errorf("%v: degenerate metrics %d/%d", preset, res.Depth, res.GateCount)
		}
		if err := dev.VerifyCompliant(res.Circuit); err != nil {
			t.Errorf("%v: %v", preset, err)
		}
	}
}

func TestPublicAPISimulationAgreesWithAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyi(7, 0.5, rng)
	prob, err := NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCircuit(prob, P1Params(0.7, 0.3), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Simulate(c)
	got := s.ExpectationDiagonal(prob.Cost)
	want := ExpectationP1Analytic(g, 0.7, 0.3)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("simulated ⟨C⟩ %v vs analytic %v", got, want)
	}
}

func TestPublicAPISamplingAndARG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := MustRandomRegular(6, 3, rng)
	prob, err := NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	dev := Melbourne15()
	res, err := Compile(prob, P1Params(0.6, 0.25), dev, PresetVIC.Options(rng))
	if err != nil {
		t.Fatal(err)
	}
	ideal := SampleIdeal(res.Circuit, 2000, rng)
	logical := make([]uint64, len(ideal))
	for i, y := range ideal {
		logical[i] = res.ExtractLogical(y)
	}
	r0, err := ApproximationRatio(prob, logical)
	if err != nil {
		t.Fatal(err)
	}
	if r0 <= 0 || r0 > 1 {
		t.Errorf("ideal ratio %v out of range", r0)
	}
	noisy := SampleNoisy(res.Circuit, NoiseFromDevice(dev), 2000, 16, rng)
	for i, y := range noisy {
		logical[i] = res.ExtractLogical(y)
	}
	rh, err := ApproximationRatio(prob, logical)
	if err != nil {
		t.Fatal(err)
	}
	if gap := ARG(r0, rh); gap <= 0 {
		t.Errorf("ARG %v not positive under noise (r0=%v rh=%v)", gap, r0, rh)
	}
}

func TestPublicAPIDevicesAndMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if Tokyo20().NQubits() != 20 || Melbourne15().NQubits() != 15 {
		t.Error("device sizes wrong")
	}
	if GridDevice(6, 6).NQubits() != 36 || LinearDevice(4).NQubits() != 4 || RingDevice(8).NQubits() != 8 {
		t.Error("synthetic device sizes wrong")
	}
	g := ErdosRenyi(10, 0.4, rng)
	l, err := QAIMMapping(g, Tokyo20(), 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if l.NLogical() != 10 {
		t.Errorf("mapping logical count %d", l.NLogical())
	}
	order := IPOrder(g, rng, 0)
	if len(order) != g.M() {
		t.Errorf("IP order covers %d of %d edges", len(order), g.M())
	}
}
