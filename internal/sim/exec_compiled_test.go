package sim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/ising"
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
// compaction or frame bug; this oracle can. It adds fig11b's graph
// families (ER(0.5) and 6-regular), p=3, the 20-qubit tokyo device and
// circuits bound from a compiled skeleton, as the hardware evaluator runs
// them. Every one of these circuits is MaxCut QAOA, so every executor must
// run on the half register.
func TestExecutorCompiledMatchesFullRegister(t *testing.T) {
	melbourne := device.Melbourne15()
	tokyo := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(1)), 1e-2, 0.5e-2)
	levels := []qaoa.Params{
		{Gamma: []float64{0.61}, Beta: []float64{0.37}},
		{Gamma: []float64{0.61, 0.83}, Beta: []float64{0.37, 0.22}},
		{Gamma: []float64{0.61, 0.83, 0.45}, Beta: []float64{0.37, 0.22, 0.51}},
	}
	regular := func(d int, seed int64) *graphs.Graph {
		return graphs.MustRandomRegular(12, d, rand.New(rand.NewSource(seed)))
	}
	er := func(seed int64) *graphs.Graph {
		return graphs.ErdosRenyi(12, 0.5, rand.New(rand.NewSource(seed)))
	}
	type tcase struct {
		what   string
		g      *graphs.Graph
		dev    *device.Device
		preset compile.Preset
		params qaoa.Params
		skel   bool // bind the angles into a compiled skeleton
		seed   int64
	}
	var cases []tcase
	presets := []compile.Preset{compile.PresetQAIM, compile.PresetIP, compile.PresetIC, compile.PresetVIC}
	for _, params := range levels[:2] {
		p := len(params.Gamma)
		for gi := int64(0); gi < 2; gi++ {
			for _, preset := range presets {
				seed := 10*gi + int64(preset)
				if p > 1 {
					seed += 100 * int64(p)
				}
				cases = append(cases, tcase{fmt.Sprintf("p=%d 3-regular %d %s", p, gi, preset), regular(3, gi), melbourne, preset, params, false, seed})
			}
		}
	}
	for _, preset := range []compile.Preset{compile.PresetIC, compile.PresetVIC} {
		cases = append(cases,
			tcase{fmt.Sprintf("ER(0.5) %s", preset), er(3), melbourne, preset, levels[0], false, 31 + int64(preset)},
			tcase{fmt.Sprintf("6-regular %s", preset), regular(6, 4), melbourne, preset, levels[0], false, 41 + int64(preset)})
	}
	cases = append(cases,
		tcase{"p=3 3-regular IC", regular(3, 5), melbourne, compile.PresetIC, levels[2], false, 51},
		tcase{"tokyo 3-regular IC", regular(3, 6), tokyo, compile.PresetIC, levels[0], false, 61},
		tcase{"tokyo ER(0.5) IP", er(7), tokyo, compile.PresetIP, levels[0], false, 71},
		tcase{"skeleton p=1 3-regular IC", regular(3, 8), melbourne, compile.PresetIC, levels[0], true, 81},
		tcase{"skeleton p=2 ER(0.5) VIC", er(9), melbourne, compile.PresetVIC, levels[1], true, 91})
	idle := 0
	for _, tc := range cases {
		prob, err := qaoa.NewMaxCut(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.preset.Options(rand.New(rand.NewSource(tc.seed)))
		var res *compile.Result
		if tc.skel {
			ps, err := compile.ParamSpecFromMaxCut(prob, len(tc.params.Gamma))
			if err != nil {
				t.Fatal(err)
			}
			skel, err := compile.CompileSkeleton(context.Background(), ps, tc.dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err = skel.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
		} else if res, err = compile.Compile(prob, tc.params, tc.dev, opts); err != nil {
			t.Fatal(err)
		}
		c := res.Circuit
		ex := sim.NewExecutor(c)
		// Swaps move slots, so routing through spare device qubits adds
		// none: the register is the logical qubits.
		if got, want := sim.ActiveQubits(ex), prob.G.N(); got != want {
			t.Fatalf("%s: slot register has %d qubits, want %d", tc.what, got, want)
		}
		if sim.ActiveQubits(ex) < c.NQubits {
			idle++
		}
		if !sim.HalfRegister(ex) {
			t.Fatalf("%s: the executor did not take the half register", tc.what)
		}
		if err := sim.TermBitsError(ex); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		nm := sim.NoiseFromDevice(tc.dev)
		want := sim.NaiveSampleNoisy(c, nm, 256, 8, rand.New(rand.NewSource(tc.seed)))
		got := ex.SampleNoisy(nm, 256, 8, rand.New(rand.NewSource(tc.seed)))
		sim.AssertSamplesEqual(t, tc.what+" noisy", got, want)
		want = sim.NewState(c.NQubits).Run(c).Sample(rand.New(rand.NewSource(tc.seed)), 256)
		got = ex.SampleIdeal(rand.New(rand.NewSource(tc.seed)), 256)
		sim.AssertSamplesEqual(t, tc.what+" ideal", got, want)
	}
	if idle == 0 {
		t.Fatal("no compiled circuit left a device qubit idle; the compacted path went untested")
	}
}

// TestExecutorHalfRegisterFallback: circuits whose state is not unchanged
// by flipping every qubit — an Ising problem with local fields (1-bit RZ
// terms), CNOT and CZ gates, a slot whose first gate is not its H — and a
// single-slot register must not take the half register, and their samples
// must still equal full-register simulation byte for byte.
func TestExecutorHalfRegisterFallback(t *testing.T) {
	dev := device.Melbourne15()
	model := ising.New(8)
	for i := 0; i < 8; i++ {
		if err := model.SetCoupling(i, (i+1)%8, 1); err != nil {
			t.Fatal(err)
		}
		if err := model.SetField(i, 0.3+0.1*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := model.CompileSpec(qaoa.Params{Gamma: []float64{0.61}, Beta: []float64{0.37}})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := compile.CompileSpec(spec, dev, compile.PresetIC.Options(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	// notH(true): qubit 2's first gate is an RX, then its H; notH(false):
	// qubit 2 gets the RX and no H, so every other gate has the shape the
	// half register allows.
	notH := func(thenH bool) *circuit.Circuit {
		c := circuit.New(5)
		c.Append(circuit.NewRX(2, 0.4))
		for q := 0; q < 5; q++ {
			if q != 2 || thenH {
				c.Append(circuit.NewH(q))
			}
		}
		for q := 0; q < 5; q++ {
			c.Append(circuit.NewCPhase(q, (q+1)%5, 0.7))
		}
		for q := 0; q < 5; q++ {
			c.Append(circuit.NewRX(q, 0.3))
		}
		return c
	}
	single := circuit.New(3) // one slot, on qubit 1
	single.Append(circuit.NewH(1))
	single.Append(circuit.NewRX(1, 0.8))
	single.MeasureAll()
	testNoise := &sim.NoiseModel{OneQubit: 0.02, TwoQubitDefault: 0.1, Readout: []float64{0.02, 0.01, 0.03, 0.02, 0.01}}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		nm   *sim.NoiseModel
	}{
		{"ising with local fields", fields.Circuit, sim.NoiseFromDevice(dev)},
		{"CNOT and CZ", sim.NoisyTestCircuit(5, 3, 77), testNoise},
		{"first gate RX, then H", notH(true), testNoise},
		{"RX in place of H", notH(false), testNoise},
		{"one slot", single, testNoise},
	} {
		ex := sim.NewExecutor(tc.c)
		if sim.HalfRegister(ex) {
			t.Fatalf("%s: the executor took the half register", tc.name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			want := sim.NaiveSampleNoisy(tc.c, tc.nm, 256, 16, rand.New(rand.NewSource(seed)))
			got := ex.SampleNoisy(tc.nm, 256, 16, rand.New(rand.NewSource(seed)))
			sim.AssertSamplesEqual(t, fmt.Sprintf("%s seed %d noisy", tc.name, seed), got, want)
			want = sim.NewState(tc.c.NQubits).Run(tc.c).Sample(rand.New(rand.NewSource(seed)), 256)
			got = ex.SampleIdeal(rand.New(rand.NewSource(seed)), 256)
			sim.AssertSamplesEqual(t, fmt.Sprintf("%s seed %d ideal", tc.name, seed), got, want)
		}
	}
}

// compiledIC compiles the hybrid loop's circuit: a 12-node 3-regular graph
// with IC onto melbourne at p=1, and returns it with melbourne's noise.
func compiledIC(b *testing.B) (*circuit.Circuit, *sim.NoiseModel) {
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
	return res.Circuit, sim.NoiseFromDevice(dev)
}

// BenchmarkSampleNoisyCompiledIC measures one hybrid-loop evaluation's
// noisy sampling: the compiledIC circuit, 1024 shots over 16 trajectories
// under melbourne noise, through a fresh executor as the evaluator does.
// Iteration i seeds its draws with i, so, as in the loop, the fault plans
// change from one evaluation to the next.
func BenchmarkSampleNoisyCompiledIC(b *testing.B) {
	c, nm := compiledIC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SampleNoisy(c, nm, 1024, 16, rand.New(rand.NewSource(int64(i))))
	}
}

// BenchmarkMeasureARGCompiledIC measures one ARG point as Fig. 11(b) takes
// it: the compiledIC circuit through one fresh executor, 1024 noisy shots
// over 16 trajectories and then 1024 ideal shots, so the ideal run serves
// every checkpoint on its way to the end. Iteration i seeds its draws
// with i.
func BenchmarkMeasureARGCompiledIC(b *testing.B) {
	c, nm := compiledIC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		ex := sim.NewExecutor(c)
		ex.SampleNoisy(nm, 1024, 16, rng)
		ex.SampleIdeal(rng, 1024)
	}
}
