package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/obsv"
)

// sameBits reports the first amplitude at which a and b differ in any bit
// of their real or imaginary parts, or -1.
func sameBits(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// pairMatrices are the matrix pairs the pair kernel must handle: both real,
// both cross (an RX and a Z-conjugated RX, as frames make them), and both
// general or of two different shapes, which run as two passes.
var pairMatrices = []struct {
	name   string
	m0, m1 [2][2]complex128
	shape  matShape
}{
	{"real", matH, MatRY(0.4), shapeReal},
	{"cross", MatRX(0.7), conj1Q(MatRX(0.3), false, true), shapeCross},
	{"general", MatU3(0.3, 0.5, 0.9), matMul(matX, MatRX(0.7)), shapeGeneral},
	{"real then cross", matH, MatRX(0.7), shapeReal},
}

// TestApply1QPairMatchesSequential: one radix-4 pass of two 1Q ops is bit
// for bit the two Apply1Q passes it replaces, for every ordered pair of
// qubits on 2- to 12-qubit registers — the first op on the lower bit and on
// the higher, bits 0 and 1 (the stride-1 and stride-2 loops) included —
// and real, cross and general matrices.
func TestApply1QPairMatchesSequential(t *testing.T) {
	for _, tc := range pairMatrices {
		if got := shapeOf(tc.m0); got != tc.shape {
			t.Fatalf("%s: first matrix has shape %d, want %d", tc.name, got, tc.shape)
		}
	}
	for n := 2; n <= 12; n++ {
		base := RandomState(n, rand.New(rand.NewSource(int64(n))))
		want, got := NewState(n), NewState(n)
		for q0 := 0; q0 < n; q0++ {
			for q1 := 0; q1 < n; q1++ {
				if q0 == q1 {
					continue
				}
				for _, tc := range pairMatrices {
					copy(want.Amp, base.Amp)
					copy(got.Amp, base.Amp)
					want.Apply1Q(q0, tc.m0)
					want.Apply1Q(q1, tc.m1)
					got.apply1QPair(q0, tc.m0, q1, tc.m1)
					if i := sameBits(got.Amp, want.Amp); i >= 0 {
						t.Fatalf("%s, n=%d, qubits %d then %d: amplitude %d = %v, two passes give %v",
							tc.name, n, q0, q1, i, got.Amp[i], want.Amp[i])
					}
				}
			}
		}
	}
}

// mixerOrderCircuit builds a MaxCut-QAOA-shaped circuit on n qubits with p
// layers whose mixers visit the qubits in the given order, as routed
// circuits do: the top qubit's RX, which runs as op1QTop on the half
// register, then sits between ops that pair.
func mixerOrderCircuit(n, p int, order []int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for l := 0; l < p; l++ {
		for q := 0; q < n; q++ {
			c.Append(circuit.NewCPhase(q, (q+1)%n, 0.7+0.1*float64(l)))
			if o := (q + 3) % n; q < o {
				c.Append(circuit.NewCPhase(q, o, 0.7+0.1*float64(l)))
			}
		}
		for _, q := range order {
			c.Append(circuit.NewRX(q, 0.4-0.1*float64(l)))
		}
	}
	c.MeasureAll()
	return c
}

// TestHalfRegisterPairing: on an executor's half register the pair kernel
// leaves op1QTop unpaired and never pairs across hk, and the ideal run,
// pairs included, equals the program applied op by op with the single-op
// kernels.
func TestHalfRegisterPairing(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		mixerOrderCircuit(8, 2, []int{3, 5, 7, 0, 1, 6, 2, 4}),
		halfKernelCircuit(7),
		staggeredPrepCircuit(6, 2),
	} {
		ex := NewExecutor(c)
		if !ex.half {
			t.Fatal("the circuit did not take the half register")
		}
		ops := ex.prog.ops
		pairs, tops := 0, 0
		for k := range ops {
			if ops[k].kind == op1QTop {
				tops++
			}
			if !ex.prog.pairs(k, ex.stop(k)) {
				continue
			}
			pairs++
			if ops[k+1].kind != op1Q || k+1 == ex.hk {
				t.Fatalf("op %d pairs with op %d (kind %d, hk %d)", k, k+1, ops[k+1].kind, ex.hk)
			}
		}
		if pairs == 0 || tops == 0 {
			t.Fatalf("%d pairs and %d top-slot ops; the test needs both", pairs, tops)
		}
		n := len(ex.final)
		want := NewState(n)
		for k := range ops {
			r := ex.register(want, k)
			switch op := &ops[k]; op.kind {
			case op1Q:
				r.Apply1Q(op.q0, op.m)
			case op1QTop:
				r.apply1QTop(op.m)
			case opDiag:
				r.applyDiag(op.global, op.terms)
			default:
				t.Fatalf("op %d has kind %d", k, op.kind)
			}
		}
		got := NewState(n)
		ex.run(got, 0, len(ops))
		for i := range want.Amp {
			if got.Amp[i] != want.Amp[i] {
				t.Fatalf("amplitude %d = %v, op by op %v", i, got.Amp[i], want.Amp[i])
			}
		}
	}
}

// uniformTerms draws k distinct parity terms on an nb-bit register with
// factor f, one and two bits wide (a one-bit parity term is what foldTerms
// makes of a term on the top slot).
func uniformTerms(rng *rand.Rand, nb, k int, f complex128) []diagTerm {
	var terms []diagTerm
	seen := map[uint64]bool{}
	for len(terms) < k {
		mask := uint64(1)<<uint(rng.Intn(nb)) | uint64(1)<<uint(rng.Intn(nb))
		if !seen[mask] {
			seen[mask] = true
			terms = append(terms, diagTerm{mask: mask, fac: [2]complex128{1, f}, parity: true})
		}
	}
	return terms
}

// TestCountedCorrectionMatchesPerTerm: the one-pass correction of a set of
// parity terms with one factor — two-bit terms and the one-bit terms a
// folded top slot leaves — is within 1e-12 per amplitude of the terms
// applied one by one, copied from a checkpoint or in place.
func TestCountedCorrectionMatchesPerTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sc := &replayScratch{}
	for trial := 0; trial < 60; trial++ {
		nb := 2 + rng.Intn(10)
		f := cmplx.Exp(complex(0, -2*(0.1+rng.Float64())))
		sc.corr = uniformTerms(rng, nb, 1+rng.Intn(min(nb*(nb+1)/2, 12)), f)
		if _, ok := uniformParity(sc.corr); !ok {
			t.Fatalf("trial %d: terms %+v not taken as one factor", trial, sc.corr)
		}
		src := RandomState(nb, rng)
		want := src.Clone()
		want.applyDiag(1, sc.corr)
		got := NewState(nb)
		sc.correct(got.Amp, src.Amp)
		if d := maxAmpDiff(want, got); d > 1e-12 {
			t.Fatalf("trial %d: one-pass correction deviates from per-term by %g", trial, d)
		}
		sc.correct(src.Amp, src.Amp)
		if d := maxAmpDiff(want, src); d > 1e-12 {
			t.Fatalf("trial %d: in-place one-pass correction deviates from per-term by %g", trial, d)
		}
	}
}

// TestCorrectionFallsBack: corrections that do not share one factor on
// parity terms run term by term, bit for bit as applyDiag applies them: a
// weighted graph's CPhases of two angles, a stretch whose RZ, U1 or CZ the
// frame corrects next to a CPhase, and more than 255 terms.
func TestCorrectionFallsBack(t *testing.T) {
	slots := func(g circuit.Gate) [2]int8 { return [2]int8{int8(g.Q0), int8(g.Q1)} }
	frame := uint64(1 << 1) // X on qubit 1
	for _, tc := range []struct {
		name  string
		gates []circuit.Gate
	}{
		{"weighted", []circuit.Gate{circuit.NewCPhase(0, 1, 0.3), circuit.NewCPhase(1, 2, 0.5)}},
		{"RZ", []circuit.Gate{circuit.NewCPhase(0, 1, 0.3), circuit.NewRZ(1, 0.9)}},
		{"U1", []circuit.Gate{circuit.NewCPhase(0, 1, 0.3), circuit.NewU1(1, 0.9)}},
		{"CZ", []circuit.Gate{circuit.NewCPhase(0, 1, 0.3), circuit.NewCZ(1, 2)}},
	} {
		var corr []diagTerm
		for _, g := range tc.gates {
			sl := slots(g)
			if g.Arity() == 1 {
				sl[1] = -1
			}
			var added bool
			if corr, added = addCorrection(corr, g, sl, frame); !added {
				t.Fatalf("%s: %s needs no correction", tc.name, g.Kind)
			}
		}
		assertFallsBack(t, tc.name, corr, 4)
	}
	rng := rand.New(rand.NewSource(8))
	many := uniformTerms(rng, 24, 256, cmplx.Exp(complex(0, -0.6)))
	if _, ok := uniformParity(many); ok {
		t.Fatal("256 terms taken as one factor; their count does not fit a byte")
	}
	if _, ok := uniformParity(many[:255]); !ok {
		t.Fatal("255 terms of one factor not taken as one")
	}
}

// assertFallsBack checks that corr is not taken as one factor and that
// correct applies it exactly as applyDiag does, on an nb-qubit state.
func assertFallsBack(t *testing.T, name string, corr []diagTerm, nb int) {
	t.Helper()
	if _, ok := uniformParity(corr); ok {
		t.Fatalf("%s: terms %+v taken as one factor", name, corr)
	}
	src := RandomState(nb, rand.New(rand.NewSource(1)))
	want := src.Clone()
	want.applyDiag(1, corr)
	got := NewState(nb)
	sc := &replayScratch{corr: corr}
	sc.correct(got.Amp, src.Amp)
	if i := sameBits(got.Amp, want.Amp); i >= 0 {
		t.Fatalf("%s: amplitude %d = %v, per-term %v", name, i, got.Amp[i], want.Amp[i])
	}
}

// TestReplayKernelsZeroAlloc: the pair kernel (every shape, and the cross
// kernel's stride-1, stride-2 and general loops) and both correction
// paths, on warm scratch, allocate nothing.
func TestReplayKernelsZeroAlloc(t *testing.T) {
	s := RandomState(10, rand.New(rand.NewSource(2)))
	dst := make([]complex128, len(s.Amp))
	f := cmplx.Exp(complex(0, -0.8))
	counted := &replayScratch{corr: uniformTerms(rand.New(rand.NewSource(3)), 10, 5, f)}
	fallback := &replayScratch{corr: []diagTerm{
		{mask: 1<<2 | 1<<5, fac: [2]complex128{1, f}, parity: true},
		{mask: 1 << 3, fac: [2]complex128{1, -1}},
	}}
	counted.correct(dst, s.Amp) // warm the count table
	allocs := testing.AllocsPerRun(20, func() {
		for _, tc := range pairMatrices {
			s.apply1QPair(0, tc.m0, 6, tc.m1)
			s.apply1QPair(7, tc.m0, 1, tc.m1)
			s.apply1QPair(3, tc.m0, 8, tc.m1)
		}
		s.Apply1Q(0, MatRX(0.2))
		s.Apply1Q(1, MatRX(0.2))
		counted.correct(dst, s.Amp)
		counted.correct(dst, dst)
		fallback.correct(dst, s.Amp)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
}

// TestIdealRunOncePerExecutor: at p=1 and p=3, when SampleNoisy comes
// first (the ARG pattern) the executor's one ideal run serves every
// checkpoint on its way to the end, so each ideal op runs exactly once
// (sim/fused_ops counts every ideal op, prefix reruns included) and the
// tail it finishes for the idle trajectories is timed under
// sim/sample_noisy, not sim/ideal_run. When Ideal() comes first the
// checkpoints it passed are rebuilt, so more ops run. Either way Ideal() is
// bit for bit the full-register run, both orders draw the same samples,
// and so does the one-shot SampleIdeal.
func TestIdealRunOncePerExecutor(t *testing.T) {
	nm := &NoiseModel{OneQubit: 0.01, TwoQubitDefault: 0.03}
	for _, p := range []int{1, 3} {
		c := mixerOrderCircuit(8, p, []int{2, 6, 0, 7, 3, 1, 5, 4})
		want := NewState(8).Run(c)
		var samples [2][2][]uint64
		for order, noiseFirst := range []bool{true, false} {
			col := obsv.New()
			SetCollector(col)
			ex := NewExecutor(c)
			var ideal, noisy []uint64
			if noiseFirst {
				noisy = ex.SampleNoisy(nm, 512, 32, rand.New(rand.NewSource(4)))
				ideal = ex.SampleIdeal(rand.New(rand.NewSource(3)), 512)
			} else {
				ideal = ex.SampleIdeal(rand.New(rand.NewSource(3)), 512)
				noisy = ex.SampleNoisy(nm, 512, 32, rand.New(rand.NewSource(4)))
			}
			SetCollector(nil)
			samples[order] = [2][]uint64{ideal, noisy}
			snap := col.Snapshot()
			cnt := snap.Counters
			ops := int64(len(ex.prog.ops))
			switch got := cnt[obsv.CntSimFusedOps]; {
			case noiseFirst && got != ops:
				t.Errorf("p=%d noise first: %d ideal ops ran, the program has %d", p, got, ops)
			case !noiseFirst && got <= ops:
				t.Errorf("p=%d ideal first: %d ideal ops ran, want more than the program's %d", p, got, ops)
			}
			if cnt[obsv.CntSimReplays] == 0 || cnt[obsv.CntSimIdealReuses] == 0 {
				t.Fatalf("p=%d order %d: %d replays and %d ideal reuses; the test needs both",
					p, order, cnt[obsv.CntSimReplays], cnt[obsv.CntSimIdealReuses])
			}
			var idealRuns int64
			for _, sp := range snap.Spans {
				if sp.Name == obsv.SpanSimIdealRun {
					idealRuns = sp.Count
				}
			}
			wantRuns := int64(1)
			if noiseFirst {
				wantRuns = 0
			}
			if idealRuns != wantRuns {
				t.Errorf("p=%d order %d: %d sim/ideal_run spans, want %d", p, order, idealRuns, wantRuns)
			}
			for i, a := range ex.Ideal().Amp {
				if a != want.Amp[i] {
					t.Fatalf("p=%d order %d: ideal amplitude %d = %v, full register %v", p, order, i, a, want.Amp[i])
				}
			}
		}
		for k, what := range []string{"ideal", "noisy"} {
			assertSamplesEqual(t, what, samples[1][k], samples[0][k])
		}
		assertSamplesEqual(t, "one-shot ideal", SampleIdeal(c, rand.New(rand.NewSource(3)), 512), samples[0][0])
	}
}

// TestAmpOpsCountsReplays: sim/amp_ops counts the ideal run's sweeps alone
// when every trajectory samples the ideal state, and adds the replays'
// checkpoint copies and walks when some replay.
func TestAmpOpsCountsReplays(t *testing.T) {
	c := mixerOrderCircuit(8, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	ex := NewExecutor(c)
	run := int64(ex.hk)<<8 + int64(len(ex.prog.ops)-ex.hk)<<7
	for _, tc := range []struct {
		name  string
		nm    *NoiseModel
		extra bool
	}{
		{"noiseless", &NoiseModel{}, false},
		{"noisy", &NoiseModel{OneQubit: 0.01, TwoQubitDefault: 0.05}, true},
	} {
		col := obsv.New()
		SetCollector(col)
		NewExecutor(c).SampleNoisy(tc.nm, 256, 16, rand.New(rand.NewSource(1)))
		SetCollector(nil)
		cnt := col.Snapshot().Counters
		got, replays := cnt[obsv.CntSimAmpOps], cnt[obsv.CntSimReplays]
		switch {
		case !tc.extra && (got != run || replays != 0):
			t.Errorf("%s: sim/amp_ops = %d with %d replays, want the ideal run's %d", tc.name, got, replays, run)
		case tc.extra && (replays == 0 || got <= run):
			t.Errorf("%s: sim/amp_ops = %d with %d replays, want more than the ideal run's %d", tc.name, got, replays, run)
		}
	}
}

// TestReusedExecutorMatchesNaive: an executor sampled again after its
// ideal run has passed the checkpoints — once Ideal() has run, or after a
// first SampleNoisy — rebuilds them in scratch from |0…0⟩, and a second
// SampleNoisy still equals the gate-by-gate oracle byte for byte, on
// MaxCut-shaped circuits on the half register at p=1 and p=3 and on a
// circuit that falls back to the full register.
func TestReusedExecutorMatchesNaive(t *testing.T) {
	nm := &NoiseModel{OneQubit: 0.05, TwoQubitDefault: 0.1, Readout: []float64{0.02, 0.01}}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		half bool
	}{
		{"maxcut p=1", mixerOrderCircuit(6, 1, []int{0, 5, 1, 4, 2, 3}), true},
		{"maxcut p=3", mixerOrderCircuit(6, 3, []int{0, 5, 1, 4, 2, 3}), true},
		{"full-register fallback", noisyTestCircuit(5, 2, 4), false},
	} {
		if got := NewExecutor(tc.c).half; got != tc.half {
			t.Fatalf("%s: half register %v, want %v", tc.name, got, tc.half)
		}
		for _, idealFirst := range []bool{true, false} {
			ex := NewExecutor(tc.c)
			if idealFirst {
				ex.Ideal()
			} else {
				want := naiveSampleNoisy(tc.c, nm, 128, 32, rand.New(rand.NewSource(99)))
				got := ex.SampleNoisy(nm, 128, 32, rand.New(rand.NewSource(99)))
				assertSamplesEqual(t, tc.name+" first call", got, want)
			}
			for seed := int64(0); seed < 4; seed++ {
				want := naiveSampleNoisy(tc.c, nm, 128, 32, rand.New(rand.NewSource(seed)))
				got := ex.SampleNoisy(nm, 128, 32, rand.New(rand.NewSource(seed)))
				assertSamplesEqual(t, fmt.Sprintf("%s ideal first %v seed %d", tc.name, idealFirst, seed), got, want)
			}
		}
	}
}
