package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obsv"
)

func bellCircuit() *circuit.Circuit {
	return circuit.New(2).Append(circuit.NewH(0), circuit.NewCNOT(0, 1))
}

func TestNoiseFromDevice(t *testing.T) {
	d := device.Melbourne15()
	nm := NoiseFromDevice(d)
	if got := nm.twoQubitError(1, 0); got != 1.87e-2 {
		t.Errorf("twoQubitError(1,0) = %v", got)
	}
	if nm.Readout == nil || len(nm.Readout) != 15 {
		t.Errorf("readout errors not copied")
	}
	if nm.OneQubit != d.Calib.SingleQubitError {
		t.Errorf("one-qubit error not copied")
	}
}

func TestNoiseFromDevicePanicsWithoutCalib(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for uncalibrated device")
		}
	}()
	NoiseFromDevice(device.Tokyo20())
}

func TestZeroNoiseMatchesIdeal(t *testing.T) {
	nm := &NoiseModel{}
	c := bellCircuit()
	rng := rand.New(rand.NewSource(1))
	noisy := RunNoisy(c, nm, rng)
	ideal := NewState(2).Run(c)
	if f := FidelityOverlap(noisy, ideal); math.Abs(f-1) > 1e-9 {
		t.Errorf("zero-noise trajectory diverges, overlap %v", f)
	}
}

func TestNoisyNormPreserved(t *testing.T) {
	nm := &NoiseModel{OneQubit: 0.3, TwoQubitDefault: 0.3}
	rng := rand.New(rand.NewSource(2))
	c := randomCircuit(4, 40, rng)
	s := RunNoisy(c, nm, rng)
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Errorf("noisy norm = %v", s.Norm())
	}
}

func TestNoiseDegradesFidelity(t *testing.T) {
	// With heavy noise, the average overlap with the ideal Bell state over
	// trajectories must drop well below 1.
	nm := &NoiseModel{TwoQubitDefault: 0.5}
	c := bellCircuit()
	ideal := NewState(2).Run(c)
	rng := rand.New(rand.NewSource(3))
	var avg float64
	const trials = 200
	for i := 0; i < trials; i++ {
		f := FidelityOverlap(RunNoisy(c, nm, rng), ideal)
		avg += f * f
	}
	avg /= trials
	if avg > 0.9 {
		t.Errorf("heavy noise kept average fidelity %v", avg)
	}
}

func TestSampleNoisyShotCount(t *testing.T) {
	nm := &NoiseModel{TwoQubitDefault: 0.05}
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ shots, traj int }{{100, 7}, {64, 64}, {10, 100}, {1, 1}} {
		got := SampleNoisy(bellCircuit(), nm, tc.shots, tc.traj, rng)
		if len(got) != tc.shots {
			t.Errorf("shots=%d traj=%d: got %d samples", tc.shots, tc.traj, len(got))
		}
	}
}

func TestSampleNoisyIdealBell(t *testing.T) {
	// Without noise, Bell samples are only 00 or 11 and roughly balanced.
	nm := &NoiseModel{}
	rng := rand.New(rand.NewSource(5))
	samples := SampleNoisy(bellCircuit(), nm, 4000, 4, rng)
	var n00, n11 int
	for _, x := range samples {
		switch x {
		case 0:
			n00++
		case 3:
			n11++
		default:
			t.Fatalf("ideal Bell sample %02b", x)
		}
	}
	if n00 < 1600 || n11 < 1600 {
		t.Errorf("Bell counts unbalanced: %d/%d", n00, n11)
	}
}

func TestReadoutErrorFlipsBits(t *testing.T) {
	// Certain readout error on qubit 0 deterministically flips it.
	nm := &NoiseModel{Readout: []float64{1, 0}}
	rng := rand.New(rand.NewSource(6))
	c := circuit.New(2) // state |00⟩
	samples := SampleNoisy(c, nm, 50, 1, rng)
	for _, x := range samples {
		if x != 1 {
			t.Fatalf("sample %02b, want 01 after certain flip of qubit 0", x)
		}
	}
}

func TestNoiseDeterministicWithSeed(t *testing.T) {
	nm := &NoiseModel{OneQubit: 0.05, TwoQubitDefault: 0.1, Readout: []float64{0.02, 0.02}}
	a := SampleNoisy(bellCircuit(), nm, 100, 10, rand.New(rand.NewSource(7)))
	b := SampleNoisy(bellCircuit(), nm, 100, 10, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed noisy sampling differs")
		}
	}
}

// TestInjectPauli2CoversBothQubits checks drawFaults' two-qubit digit
// split: a faulting two-qubit gate draws one of the 15 non-identity
// products P⊗Q, and every one of them occurs, so faults reach each qubit.
func TestInjectPauli2CoversBothQubits(t *testing.T) {
	c := circuit.New(2).Append(circuit.NewCNOT(0, 1))
	nm := &NoiseModel{TwoQubitDefault: 1}
	rng := rand.New(rand.NewSource(8))
	var seen [4][4]bool
	for i := 0; i < 400; i++ {
		faults := drawFaults(c, nm, rng, nil)
		if len(faults) != 1 {
			t.Fatalf("a CNOT with fault probability 1 drew %d faults", len(faults))
		}
		f := faults[0]
		if f.q0 != 0 || f.q1 != 1 {
			t.Fatalf("fault on qubits (%d, %d), want (0, 1)", f.q0, f.q1)
		}
		if f.d0 == 0 && f.d1 == 0 {
			t.Fatal("two-qubit fault drew the identity I⊗I")
		}
		seen[f.d0][f.d1] = true
	}
	for d0 := 0; d0 < 4; d0++ {
		for d1 := 0; d1 < 4; d1++ {
			if !seen[d0][d1] && (d0 != 0 || d1 != 0) {
				t.Errorf("Pauli digits (%d, %d) never drawn", d0, d1)
			}
		}
	}
}

// TestSampleNoisyOneSpanPerCall: the one-shot SampleNoisy, whose span also
// covers building its executor, and Executor.SampleNoisy each record one
// sim/sample_noisy span per call; zero shots record none.
func TestSampleNoisyOneSpanPerCall(t *testing.T) {
	col := obsv.New()
	SetCollector(col)
	defer SetCollector(nil)
	c := noisyTestCircuit(4, 2, 5)
	nm := testNoiseModel()
	rng := rand.New(rand.NewSource(1))
	ex := NewExecutor(c)
	for i := 0; i < 3; i++ {
		SampleNoisy(c, nm, 64, 4, rng)
		ex.SampleNoisy(nm, 64, 4, rng)
	}
	SampleNoisy(c, nm, 0, 4, rng)
	ex.SampleNoisy(nm, 0, 4, rng)
	var got int64
	for _, sp := range col.Snapshot().Spans {
		if sp.Name == obsv.SpanSimSampleNoisy {
			got = sp.Count
		}
	}
	if got != 6 {
		t.Fatalf("%d %s spans over 6 calls with shots", got, obsv.SpanSimSampleNoisy)
	}
}
