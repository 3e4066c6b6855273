package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// TestExecutorCompiledMatchesFullRegister compiles 12-node graphs onto the
// 15-qubit melbourne device with every ARG preset, at p=1 and p=2 —
// circuits whose routing passes through spare device qubits, so the
// executor simulates a register of 12 slots, and whose Pauli frames at p=2
// cross a mixer into the next cost layer — and checks its noisy and ideal
// samples against full-register simulation byte for byte. Comparing two
// executor runs with each other (as the bind tests do) cannot see a
// compaction or frame bug; this oracle can.
func TestExecutorCompiledMatchesFullRegister(t *testing.T) {
	dev := device.Melbourne15()
	nm := sim.NoiseFromDevice(dev)
	levels := []qaoa.Params{
		{Gamma: []float64{0.61}, Beta: []float64{0.37}},
		{Gamma: []float64{0.61, 0.83}, Beta: []float64{0.37, 0.22}},
	}
	presets := []compile.Preset{compile.PresetQAIM, compile.PresetIP, compile.PresetIC, compile.PresetVIC}
	idle := 0
	for _, params := range levels {
		p := len(params.Gamma)
		for gi := int64(0); gi < 2; gi++ {
			prob, err := qaoa.NewMaxCut(graphs.MustRandomRegular(12, 3, rand.New(rand.NewSource(gi))))
			if err != nil {
				t.Fatal(err)
			}
			for _, preset := range presets {
				res, err := compile.Compile(prob, params, dev, preset.Options(rand.New(rand.NewSource(gi))))
				if err != nil {
					t.Fatal(err)
				}
				c := res.Circuit
				ex := sim.NewExecutor(c)
				what := fmt.Sprintf("p=%d graph %d %s", p, gi, preset)
				// Swaps move slots, so routing through spare device qubits
				// adds none: the register is the logical qubits.
				if got, want := sim.ActiveQubits(ex), prob.G.N(); got != want {
					t.Fatalf("%s: slot register has %d qubits, want %d", what, got, want)
				}
				if sim.ActiveQubits(ex) < c.NQubits {
					idle++
				}
				if err := sim.TermBitsError(ex); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				seed := 10*gi + int64(preset)
				if p > 1 {
					seed += 100 * int64(p)
				}
				want := sim.NaiveSampleNoisy(c, nm, 256, 8, rand.New(rand.NewSource(seed)))
				got := ex.SampleNoisy(nm, 256, 8, rand.New(rand.NewSource(seed)))
				sim.AssertSamplesEqual(t, what+" noisy", got, want)
				want = sim.NewState(c.NQubits).Run(c).Sample(rand.New(rand.NewSource(seed)), 256)
				got = ex.SampleIdeal(rand.New(rand.NewSource(seed)), 256)
				sim.AssertSamplesEqual(t, what+" ideal", got, want)
			}
		}
	}
	if idle == 0 {
		t.Fatal("no compiled circuit left a device qubit idle; the compacted path went untested")
	}
}

// BenchmarkSampleNoisyCompiledIC measures one hybrid-loop evaluation's
// noisy sampling: a 12-node 3-regular graph compiled with IC onto
// melbourne at p=1, 1024 shots over 16 trajectories under melbourne noise,
// through a fresh executor as the evaluator does.
func BenchmarkSampleNoisyCompiledIC(b *testing.B) {
	dev := device.Melbourne15()
	prob, err := qaoa.NewMaxCut(graphs.MustRandomRegular(12, 3, rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	params := qaoa.Params{Gamma: []float64{0.61}, Beta: []float64{0.37}}
	res, err := compile.Compile(prob, params, dev, compile.PresetIC.Options(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	nm := sim.NoiseFromDevice(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SampleNoisy(res.Circuit, nm, 1024, 16, rand.New(rand.NewSource(5)))
	}
}
