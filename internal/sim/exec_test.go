package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obsv"
)

// testNoiseModel returns a model noisy enough that a sizable fraction of
// trajectories draw faults while many stay fault-free — exercising both the
// ideal-reuse and the checkpoint/replay paths of the executor.
func testNoiseModel() *NoiseModel {
	return &NoiseModel{
		OneQubit:        0.01,
		TwoQubitDefault: 0.05,
		Readout:         []float64{0.02, 0.01, 0.03, 0.02, 0.01},
	}
}

// naiveSampleNoisy re-derives the executor's specified semantics with the
// straightforward implementation: every trajectory seeds its private
// substream from one base draw, then runs the whole circuit gate by gate
// with interleaved fault draws, samples its shots and flips readout bits.
// The executor's ideal-reuse and checkpoint/replay shortcuts must reproduce
// this byte for byte.
func naiveSampleNoisy(c *circuit.Circuit, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	if trajectories < 1 {
		trajectories = 1
	}
	if trajectories > shots {
		trajectories = shots
	}
	base := rng.Int63()
	out := make([]uint64, 0, shots)
	nb, extra := shots/trajectories, shots%trajectories
	for t := 0; t < trajectories; t++ {
		k := nb
		if t < extra {
			k++
		}
		if k == 0 {
			continue
		}
		trng := newSubstream(base, int64(t))
		s := RunNoisy(c, nm, trng)
		samples := s.Sample(trng, k)
		flipReadoutAll(samples, nm, trng)
		out = append(out, samples...)
	}
	return out
}

func noisyTestCircuit(n, layers int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for l := 0; l < layers; l++ {
		for q := 0; q+1 < n; q += 2 {
			c.Append(circuit.NewCNOT(q, q+1))
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.NewRZ(q, rng.Float64()*2))
		}
		for q := 1; q+1 < n; q += 2 {
			c.Append(circuit.NewCZ(q, q+1))
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.NewRX(q, rng.Float64()))
		}
	}
	return c
}

func TestSampleNoisyMatchesNaive(t *testing.T) {
	c := noisyTestCircuit(5, 3, 77)
	nm := testNoiseModel()
	for _, seed := range []int64{1, 2, 3, 11, 12345} {
		want := naiveSampleNoisy(c, nm, 600, 24, rand.New(rand.NewSource(seed)))
		got := NewExecutor(c).SampleNoisy(nm, 600, 24, rand.New(rand.NewSource(seed)))
		if len(want) != len(got) {
			t.Fatalf("seed %d: length %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: sample %d = %#x, naive has %#x", seed, i, got[i], want[i])
			}
		}
	}
}

func TestSampleNoisyPackageHelperMatchesExecutor(t *testing.T) {
	c := noisyTestCircuit(4, 2, 5)
	nm := testNoiseModel()
	a := SampleNoisy(c, nm, 300, 10, rand.New(rand.NewSource(9)))
	b := NewExecutor(c).SampleNoisy(nm, 300, 10, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// TestSampleNoisyZeroShots: zero shots draw nothing, as SampleIdeal does,
// through both the executor and the one-shot helper.
func TestSampleNoisyZeroShots(t *testing.T) {
	c := noisyTestCircuit(4, 2, 5)
	nm := testNoiseModel()
	rng := rand.New(rand.NewSource(9))
	for _, traj := range []int{0, 1, 16} {
		if got := NewExecutor(c).SampleNoisy(nm, 0, traj, rng); got == nil || len(got) != 0 {
			t.Fatalf("Executor.SampleNoisy with 0 shots over %d trajectories = %v, want empty", traj, got)
		}
		if got := SampleNoisy(c, nm, 0, traj, rng); got == nil || len(got) != 0 {
			t.Fatalf("SampleNoisy with 0 shots over %d trajectories = %v, want empty", traj, got)
		}
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(9)).Int63(); got != want {
		t.Error("zero-shot noisy sampling consumed the caller's generator")
	}
}

// TestSampleNoisyIndependentOfGOMAXPROCS: the per-trajectory substreams make
// the fan-out schedule irrelevant to the results.
func TestSampleNoisyIndependentOfGOMAXPROCS(t *testing.T) {
	c := noisyTestCircuit(5, 3, 99)
	nm := testNoiseModel()
	run := func(procs int) []uint64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return NewExecutor(c).SampleNoisy(nm, 800, 32, rand.New(rand.NewSource(4242)))
	}
	want := run(1)
	for _, procs := range []int{2, 4, 8} {
		got := run(procs)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("GOMAXPROCS=%d: sample %d = %#x, GOMAXPROCS=1 has %#x", procs, i, got[i], want[i])
			}
		}
	}
}

// TestExecutorIdealReuse: SampleIdeal and fault-free noisy trajectories
// share one ideal execution, and repeated calls never recompute it.
func TestExecutorIdealReuse(t *testing.T) {
	c := noisyTestCircuit(4, 2, 3)
	ex := NewExecutor(c)
	st := ex.Ideal()
	if ex.Ideal() != st {
		t.Fatal("Ideal() recomputed the state")
	}
	want := referenceRun(c)
	if d := maxAmpDiff(want, st); d > 1e-12 {
		t.Fatalf("ideal state deviates from reference by %g", d)
	}
	// With a zero noise model every trajectory reuses the ideal state and the
	// samples match plain ideal sampling draw for draw.
	nm := &NoiseModel{}
	rng1 := rand.New(rand.NewSource(7))
	noisy := ex.SampleNoisy(nm, 200, 8, rng1)
	rng2 := rand.New(rand.NewSource(7))
	base := rng2.Int63()
	var ideal []uint64
	for t9 := 0; t9 < 8; t9++ {
		trng := newSubstream(base, int64(t9))
		drawFaults(c, nm, trng, nil) // advance past the (empty) fault plan draws
		ideal = append(ideal, ex.SampleIdeal(trng, 25)...)
	}
	for i := range ideal {
		if noisy[i] != ideal[i] {
			t.Fatalf("fault-free trajectory sample %d = %#x, ideal draw %#x", i, noisy[i], ideal[i])
		}
	}
}

// TestRunNoisyZeroNoiseMatchesRun: without faults the oracle is the plain
// gate-by-gate run, bit for bit, and agrees with the fused Run to rounding.
func TestRunNoisyZeroNoiseMatchesRun(t *testing.T) {
	c := noisyTestCircuit(4, 2, 21)
	got := RunNoisy(c, &NoiseModel{}, rand.New(rand.NewSource(1)))
	if d := maxAmpDiff(referenceRun(c), got); d != 0 {
		t.Fatalf("fault-free RunNoisy deviates from the gate-by-gate run by %g", d)
	}
	if d := maxAmpDiff(NewState(4).Run(c), got); d > 1e-12 {
		t.Fatalf("fault-free RunNoisy deviates from Run by %g", d)
	}
}

func TestSubstreamSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 1 << 40} {
		for t9 := int64(0); t9 < 64; t9++ {
			s := substreamSeed(base, t9)
			if s < 0 {
				t.Fatalf("negative seed %d", s)
			}
			if seen[s] {
				t.Fatalf("substream collision at base=%d t=%d", base, t9)
			}
			seen[s] = true
		}
	}
}

func TestExpectationTableMatchesDiagonal(t *testing.T) {
	s := RandomState(7, rand.New(rand.NewSource(17)))
	// An observable unchanged when every bit flips, as a cut value is.
	cost := func(x uint64) float64 {
		if x >= 1<<6 {
			x ^= 1<<7 - 1
		}
		return float64((x * 2654435761) % 97)
	}
	tbl := make([]uint8, len(s.Amp)/2)
	for x := range tbl {
		tbl[x] = uint8(cost(uint64(x)))
	}
	want := s.ExpectationDiagonal(cost)
	got := s.ExpectationTable(tbl)
	if d := want - got; d > 1e-12 || d < -1e-12 {
		t.Fatalf("ExpectationTable = %g, ExpectationDiagonal = %g", got, want)
	}
}

// idleTestCircuit builds a compiled-QAOA-shaped circuit on an n-qubit
// register whose simulable gates touch only the given qubits: an H wall,
// CPhase and CNOT/Swap/CZ rounds between random active pairs, RZ and RX
// rotations. Every qubit — idle ones included — then gets a Measure, and a
// Barrier sits mid-circuit, so the non-simulable gates reach idle qubits.
func idleTestCircuit(n int, active []int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for _, q := range active {
		c.Append(circuit.NewH(q))
	}
	pair := func() (int, int) {
		i := rng.Intn(len(active))
		j := (i + 1 + rng.Intn(len(active)-1)) % len(active)
		return active[i], active[j]
	}
	for l := 0; l < 2; l++ {
		if len(active) > 1 {
			for i := 0; i < len(active); i++ {
				a, b := pair()
				c.Append(circuit.NewCPhase(a, b, rng.Float64()*2))
				switch a, b := pair(); rng.Intn(3) {
				case 0:
					c.Append(circuit.NewSwap(a, b))
				case 1:
					c.Append(circuit.NewCNOT(a, b))
				default:
					c.Append(circuit.NewCZ(a, b))
				}
			}
		}
		if l == 0 {
			c.Append(circuit.Gate{Kind: circuit.Barrier})
		}
		for _, q := range active {
			c.Append(circuit.NewRZ(q, rng.Float64()))
			c.Append(circuit.NewRX(q, rng.Float64()))
		}
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewMeasure(q))
	}
	return c
}

// TestExecutorIdleQubitsMatchNaive: the executor simulates only the qubits
// that carry state, yet its noisy and ideal samples must equal full-register
// simulation byte for byte — melbourne noise puts per-edge fault rates on
// the active pairs and readout flips on every qubit, idle ones included.
func TestExecutorIdleQubitsMatchNaive(t *testing.T) {
	const n = 15
	nm := NoiseFromDevice(device.Melbourne15())
	all := make([]int, n)
	for q := range all {
		all[q] = q
	}
	cases := []struct {
		name   string
		active []int
	}{
		{"qubit-0-idle", all[1:]},
		{"top-qubit-idle", all[:n-1]},
		{"single-active", []int{6}},
		{"no-idle", all},
		{"no-simulable-gate", nil},
	}
	// Both executor paths must be exercised: fault-free trajectories that
	// sample the shared ideal CDF and faulty ones that replay a suffix.
	var faulty, clean int
	defer func() {
		if faulty == 0 || clean == 0 {
			t.Errorf("trajectories: %d faulty, %d fault-free; want both paths covered", faulty, clean)
		}
	}()
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 4; i++ {
		perm := rng.Perm(n)[:2+rng.Intn(n-3)]
		sort.Ints(perm)
		cases = append(cases, struct {
			name   string
			active []int
		}{fmt.Sprintf("random-%d", i), perm})
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := idleTestCircuit(n, tc.active, int64(ci))
			if ex := NewExecutor(c); len(ex.final) != len(tc.active) {
				t.Fatalf("slot register has %d qubits, want %d", len(ex.final), len(tc.active))
			}
			seed := int64(100 + ci)
			base := rand.New(rand.NewSource(seed)).Int63()
			for tr := int64(0); tr < 16; tr++ {
				if len(drawFaults(c, nm, newSubstream(base, tr), nil)) > 0 {
					faulty++
				} else {
					clean++
				}
			}
			assertMatchesFullRegister(t, c, nm, seed)
		})
	}
}

// assertMatchesFullRegister checks an executor's noisy and ideal samples of
// c against full-register simulation, byte for byte, at GOMAXPROCS 1 and 2.
func assertMatchesFullRegister(t *testing.T, c *circuit.Circuit, nm *NoiseModel, seed int64) {
	t.Helper()
	wantNoisy := naiveSampleNoisy(c, nm, 256, 16, rand.New(rand.NewSource(seed)))
	wantIdeal := NewState(c.NQubits).Run(c).Sample(rand.New(rand.NewSource(seed)), 256)
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		gotNoisy := NewExecutor(c).SampleNoisy(nm, 256, 16, rand.New(rand.NewSource(seed)))
		gotIdeal := NewExecutor(c).SampleIdeal(rand.New(rand.NewSource(seed)), 256)
		runtime.GOMAXPROCS(old)
		assertSamplesEqual(t, fmt.Sprintf("GOMAXPROCS=%d noisy", procs), gotNoisy, wantNoisy)
		assertSamplesEqual(t, fmt.Sprintf("GOMAXPROCS=%d ideal", procs), gotIdeal, wantIdeal)
	}
}

// routedTestCircuit builds a circuit whose swaps route qubit states through
// otherwise idle qubits, as a router does: the qubits in start get an H,
// then each round swaps two random qubits (a state and an idle qubit, two
// states, or two idle qubits) and applies a CPhase and an RX to qubits that
// hold a state. Every qubit gets a Measure.
func routedTestCircuit(n int, start []int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	holds := make([]bool, n)
	for _, q := range start {
		holds[q] = true
		c.Append(circuit.NewH(q))
	}
	for r := 0; r < 3*n; r++ {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		c.Append(circuit.NewSwap(a, b))
		holds[a], holds[b] = holds[b], holds[a]
		var occ []int
		for q, h := range holds {
			if h {
				occ = append(occ, q)
			}
		}
		i, j := rng.Intn(len(occ)), rng.Intn(len(occ)-1)
		if j >= i {
			j++
		}
		c.Append(circuit.NewCPhase(occ[i], occ[j], 0.2+rng.Float64()))
		c.Append(circuit.NewRX(occ[rng.Intn(len(occ))], rng.Float64()))
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewMeasure(q))
	}
	return c
}

// TestExecutorRoutedThroughIdleQubitsMatchesNaive: swaps move slots instead
// of amplitudes, so a circuit that routes 9 qubit states across all 15
// qubits simulates 9 qubits. Noisy trajectories put Pauli faults on qubits
// that hold no slot; the executor tracks those as classical bits, and its
// samples must still equal full-register simulation byte for byte.
func TestExecutorRoutedThroughIdleQubitsMatchesNaive(t *testing.T) {
	const n = 15
	nm := NoiseFromDevice(device.Melbourne15())
	slotless := 0 // faults that put X or Y on a qubit without a slot
	for seed := int64(0); seed < 4; seed++ {
		start := rand.New(rand.NewSource(seed)).Perm(n)[:9]
		c := routedTestCircuit(n, start, seed)
		ex := NewExecutor(c)
		if len(ex.final) != len(start) {
			t.Fatalf("seed %d: slot register has %d qubits, want %d", seed, len(ex.final), len(start))
		}
		base := rand.New(rand.NewSource(seed)).Int63()
		for tr := int64(0); tr < 16; tr++ {
			at := append([]int(nil), ex.start...)
			faults := drawFaults(c, nm, newSubstream(base, tr), nil)
			fi := 0
			for gi, g := range c.Gates {
				if g.Kind == circuit.Swap {
					at[g.Q0], at[g.Q1] = at[g.Q1], at[g.Q0]
				}
				for ; fi < len(faults) && faults[fi].gate == gi; fi++ {
					f := faults[fi]
					if at[f.q0] < 0 && (f.d0 == 1 || f.d0 == 2) || f.q1 >= 0 && at[f.q1] < 0 && (f.d1 == 1 || f.d1 == 2) {
						slotless++
					}
				}
			}
		}
		assertMatchesFullRegister(t, c, nm, seed)
	}
	if slotless == 0 {
		t.Fatal("no fault flipped a qubit without a slot; the classical-bit path went untested")
	}
}

// TestExecutorSlotFallback: when a non-swap gate reaches a qubit whose state
// a swap moved away, the executor gives a slot to every touched qubit and
// still matches full-register simulation.
func TestExecutorSlotFallback(t *testing.T) {
	c := circuit.New(5)
	c.Append(circuit.NewH(0))
	c.Append(circuit.NewH(1))
	c.Append(circuit.NewSwap(0, 3))
	c.Append(circuit.NewH(0)) // qubit 0 is |0⟩ again and gets a gate
	c.Append(circuit.NewCPhase(0, 1, 0.7))
	c.Append(circuit.NewCPhase(1, 3, 0.4))
	c.Append(circuit.NewSwap(1, 4))
	c.Append(circuit.NewRX(4, 0.3))
	c.Append(circuit.NewRX(3, 0.9))
	if _, _, ok := slotLayout(c, false); ok {
		t.Fatal("slotLayout accepted a gate on a qubit that lost its slot")
	}
	ex := NewExecutor(c)
	if got, want := len(ex.final), 4; got != want {
		t.Fatalf("fallback register has %d slots, want %d (every touched qubit)", got, want)
	}
	assertMatchesFullRegister(t, c, testNoiseModel(), 11)
}

func assertSamplesEqual(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d = %#x, full register has %#x", what, i, got[i], want[i])
		}
	}
}

// TestExecutorIdealBitIdenticalAtScale checks that the slot register and
// the full register run the same kernels at every size: a 20-qubit circuit
// with one idle qubit evolves a 19-slot register whose ideal state, scattered
// back to full-register indices, equals the full-register run amplitude for
// amplitude.
func TestExecutorIdealBitIdenticalAtScale(t *testing.T) {
	const n = 20
	active := make([]int, 0, n-1)
	for q := 0; q < n; q++ {
		if q != 7 {
			active = append(active, q)
		}
	}
	c := circuit.New(n)
	for _, q := range active {
		c.Append(circuit.NewH(q))
	}
	for i, a := range active {
		c.Append(circuit.NewCPhase(a, active[(i+3)%len(active)], 0.3+0.1*float64(i)))
	}
	for _, q := range active {
		c.Append(circuit.NewRX(q, 0.4))
	}
	ex := NewExecutor(c)
	want := NewState(n).Run(c)
	got := NewState(n)
	got.Amp[0] = 0
	for k, a := range ex.Ideal().Amp {
		x := []uint64{uint64(k)}
		ex.deposit(x, 0)
		got.Amp[x[0]] = a
	}
	for i := range want.Amp {
		if got.Amp[i] != want.Amp[i] {
			t.Fatalf("amplitude %d: active register has %v, full register %v", i, got.Amp[i], want.Amp[i])
		}
	}
}

// halfKernelCircuit builds a MaxCut-QAOA-shaped circuit on n qubits whose
// top slot meets each of apply1QTop's three kernels: after the H wall and a
// CPhase ring, qubit n−1 gets an X (real), an RX (cross), and an RX fused
// with an X (a general complex matrix), each between CPhases on it.
func halfKernelCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	top := n - 1
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewCPhase(q, (q+1)%n, 0.3+0.1*float64(q)))
	}
	c.Append(circuit.NewX(top))
	c.Append(circuit.NewCPhase(0, top, 0.9))
	c.Append(circuit.NewRX(top, 0.7))
	c.Append(circuit.NewCPhase(1, top, 0.4))
	c.Append(circuit.NewRX(top, 0.5))
	c.Append(circuit.NewX(top))
	for q := 0; q < n; q++ {
		c.Append(circuit.NewRX(q, 0.35))
	}
	return c
}

// TestApply1QTopMatchesFullRegister: on a register that flipping every bit
// leaves unchanged, the mirrored top-qubit pass over the low half equals the
// full register's Apply1Q on the top qubit bit for bit, for real, cross and
// general matrices of the [[a, b], [b, a]] shape, and the full result stays
// symmetric.
func TestApply1QTopMatchesFullRegister(t *testing.T) {
	rx := MatRX(0.7)
	for _, tc := range []struct {
		name string
		m    [2][2]complex128
	}{
		{"real", matX},
		{"cross", rx},
		{"cross, Z-conjugated", conj1Q(rx, false, true)},
		{"general", matMul(matX, rx)},
	} {
		for _, n := range []int{2, 3, 7} {
			full := RandomState(n, rand.New(rand.NewSource(int64(n))))
			mirror(full.Amp)
			half := &State{N: n - 1, Amp: append([]complex128(nil), full.Amp[:len(full.Amp)/2]...)}
			full.Apply1Q(n-1, tc.m)
			half.apply1QTop(tc.m)
			for x, a := range half.Amp {
				if a != full.Amp[x] {
					t.Fatalf("%s, n=%d: amplitude %d = %v, full register %v", tc.name, n, x, a, full.Amp[x])
				}
			}
			last := len(full.Amp) - 1
			for x, a := range full.Amp {
				if a != full.Amp[last-x] {
					t.Fatalf("%s, n=%d: the full register lost its symmetry at %d", tc.name, n, x)
				}
			}
		}
	}
}

// TestIdealCountsHalfRegisterWork: an ideal run on the half register counts
// the amplitudes it swept, 2^n per op before hk and 2^{n−1} after, and the
// executor counts once in sim/half_registers.
func TestIdealCountsHalfRegisterWork(t *testing.T) {
	col := obsv.New()
	SetCollector(col)
	defer SetCollector(nil)
	const n = 8
	ex := NewExecutor(halfKernelCircuit(n))
	if !ex.half || ex.hk <= 0 || ex.hk >= len(ex.prog.ops) {
		t.Fatalf("half %v from op %d of %d: want the half register from inside the program", ex.half, ex.hk, len(ex.prog.ops))
	}
	ideal := ex.Ideal()
	cnt := col.Snapshot().Counters
	if d := maxAmpDiff(NewState(n).Run(halfKernelCircuit(n)), ideal); d != 0 {
		t.Fatalf("half-register ideal state deviates from the full register by %g", d)
	}
	ops := int64(len(ex.prog.ops))
	hk := int64(ex.hk)
	if got, want := cnt[obsv.CntSimAmpOps], hk<<n+(ops-hk)<<(n-1); got != want {
		t.Errorf("sim/amp_ops = %d, want %d", got, want)
	}
	if got := cnt[obsv.CntSimHalfRegisters]; got != 1 {
		t.Errorf("sim/half_registers = %d, want 1", got)
	}
	NewExecutor(noisyTestCircuit(5, 2, 1)).Ideal() // CNOTs: full register
	if got := col.Snapshot().Counters[obsv.CntSimHalfRegisters]; got != 1 {
		t.Errorf("sim/half_registers = %d after a full-register executor, want 1", got)
	}
}

// staggeredPrepCircuit builds a MaxCut-QAOA-shaped circuit on n qubits
// whose qubits are prepared one after another, the top qubit first: each H
// is followed by CPhases to some of the qubits prepared before it and an RX
// on one of them. Faults on early preparations then change ops before the
// last H, and the top qubit runs ops on the whole register before the
// executor halves it. A CPhase ring and an RX on every qubit follow.
func staggeredPrepCircuit(n int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	order := append([]int{n - 1}, rng.Perm(n-1)...)
	for i, q := range order {
		c.Append(circuit.NewH(q))
		for _, p := range order[:i] {
			if rng.Intn(2) == 0 {
				c.Append(circuit.NewCPhase(p, q, 0.2+rng.Float64()))
			}
		}
		c.Append(circuit.NewRX(order[rng.Intn(i+1)], rng.Float64()))
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewCPhase(q, (q+1)%n, 0.2+rng.Float64()))
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewRX(q, rng.Float64()))
	}
	c.MeasureAll()
	return c
}

// TestSampleNoisyStaggeredPrepMatchesNaive: when preparations are spread
// over the circuit, trajectories whose faults land before the last H
// checkpoint on the whole register and cross into the half register during
// their walk; their samples still equal full-register simulation byte for
// byte.
func TestSampleNoisyStaggeredPrepMatchesNaive(t *testing.T) {
	nm := &NoiseModel{OneQubit: 0.03, TwoQubitDefault: 0.1, Readout: []float64{0.02, 0.01, 0.03}}
	early := 0 // trajectories that checkpoint before hk
	for seed := int64(0); seed < 4; seed++ {
		c := staggeredPrepCircuit(6, seed)
		ex := NewExecutor(c)
		if !ex.half || ex.hk < 2 {
			t.Fatalf("seed %d: half %v from op %d; want the half register after several ops", seed, ex.half, ex.hk)
		}
		base := rand.New(rand.NewSource(seed)).Int63()
		for tr := int64(0); tr < 16; tr++ {
			p := &trajPlan{faults: drawFaults(c, nm, newSubstream(base, tr), nil)}
			ex.plan(p, nil)
			if ex.replays(p) && p.w.pk < ex.hk {
				early++
			}
		}
		assertMatchesFullRegister(t, c, nm, seed)
	}
	if early == 0 {
		t.Fatal("no trajectory checkpointed before the half register began")
	}
}
