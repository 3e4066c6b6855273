package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/leaktest"
	"repro/internal/obsv"
)

// unitary returns the 2^n×2^n matrix of c, column j the state c makes of
// basis state |j⟩, computed gate by gate.
func unitary(c *circuit.Circuit) [][]complex128 {
	dim := 1 << uint(c.NQubits)
	u := make([][]complex128, dim)
	for i := range u {
		u[i] = make([]complex128, dim)
	}
	for j := 0; j < dim; j++ {
		s := NewState(c.NQubits)
		s.Amp[0], s.Amp[j] = 0, 1
		for _, g := range c.Gates {
			s.ApplyGate(g)
		}
		for i, a := range s.Amp {
			u[i][j] = a
		}
	}
	return u
}

// pauliCircuit is X^x·Z^z on n qubits as a circuit (Z first).
func pauliCircuit(n int, x, z uint64) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		if z>>uint(q)&1 != 0 {
			c.Append(circuit.NewZ(q))
		}
	}
	for q := 0; q < n; q++ {
		if x>>uint(q)&1 != 0 {
			c.Append(circuit.NewX(q))
		}
	}
	return c
}

func matProd(a, b [][]complex128) [][]complex128 {
	out := make([][]complex128, len(a))
	for i := range a {
		out[i] = make([]complex128, len(b[0]))
		for j := range b[0] {
			for k := range b {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func dagger(a [][]complex128) [][]complex128 {
	out := make([][]complex128, len(a))
	for i := range a {
		out[i] = make([]complex128, len(a))
		for j := range a {
			out[i][j] = cmplx.Conj(a[j][i])
		}
	}
	return out
}

// diagMatrix is the diagonal matrix of a product of diagonal terms on n
// qubits.
func diagMatrix(n int, terms []diagTerm) [][]complex128 {
	dim := 1 << uint(n)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
		out[i][i] = 1
		for t := range terms {
			out[i][i] *= termFac(&terms[t], uint64(i))
		}
	}
	return out
}

// phaseDiff returns max |a − φ·b| over the entries, with φ the global phase
// that aligns b's largest entry with a's (phase=false: φ = 1).
func phaseDiff(a, b [][]complex128, phase bool) float64 {
	phi := complex(1, 0)
	if phase {
		bi, bj, best := 0, 0, 0.0
		for i := range b {
			for j := range b[i] {
				if m := cmplx.Abs(b[i][j]); m > best {
					bi, bj, best = i, j, m
				}
			}
		}
		phi = a[bi][bj] / b[bi][bj]
	}
	worst := 0.0
	for i := range a {
		for j := range a[i] {
			worst = math.Max(worst, cmplx.Abs(a[i][j]-phi*b[i][j]))
		}
	}
	return worst
}

func mat2(m [2][2]complex128) [][]complex128 {
	return [][]complex128{{m[0][0], m[0][1]}, {m[1][0], m[1][1]}}
}

// TestFrameRulesMatchMatrixProducts checks every rule by which a gate G
// passes the Pauli frame P = X^x·Z^z against explicit matrix products, for
// every gate kind and every Pauli on its qubits. The trajectory's state is
// P·|φ⟩ with |φ⟩ the simulated state, so G·P·|φ⟩ must equal P'·G'·|φ⟩:
//
//   - 1Q ops keep the frame and run conj1Q(G) = P†·G·P, exactly;
//   - CNOT runs as is and moves the frame to G·P·G† (up to phase);
//   - diagonal gates keep the frame and run Corr·G = P†·G·P (up to phase),
//     with Corr from addCorrection, whose every term has one or two mask
//     bits; diagonal 1Q gates may sit in either a 1Q op or a diagonal one,
//     so both rules must hold for them;
//   - a swap keeps the slot frame: G·P·G† is P with its qubits exchanged.
func TestFrameRulesMatchMatrixProducts(t *testing.T) {
	gates := []circuit.Gate{
		circuit.NewH(0), circuit.NewX(0), circuit.NewY(0), circuit.NewZ(0),
		circuit.NewRX(0, 0.7), circuit.NewRY(0, 1.1), circuit.NewRZ(0, 0.9),
		circuit.NewU1(0, 0.4), circuit.NewU2(0, 0.3, 1.2), circuit.NewU3(0, 0.5, 0.8, 1.3),
		circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0), circuit.NewCZ(0, 1),
		circuit.NewCPhase(0, 1, 0.6), circuit.NewCPhase(1, 0, -1.3), circuit.NewSwap(0, 1),
	}
	for _, g := range gates {
		n := g.Arity()
		gc := circuit.New(n)
		gc.Append(g)
		G := unitary(gc)
		for x := uint64(0); x < 1<<uint(n); x++ {
			for z := uint64(0); z < 1<<uint(n); z++ {
				what := fmt.Sprintf("%s(%d,%d) under X^%b Z^%b", g.Kind, g.Q0, g.Q1, x, z)
				P := unitary(pauliCircuit(n, x, z))
				conj := matProd(dagger(P), matProd(G, P)) // P†·G·P
				diagonal := false
				switch g.Kind {
				case circuit.Z, circuit.RZ, circuit.U1, circuit.CZ, circuit.CPhase:
					diagonal = true
				}
				if n == 1 {
					got := mat2(conj1Q(mat1Q(g), x != 0, z != 0))
					if d := phaseDiff(conj, got, false); d > 1e-15 {
						t.Errorf("%s: conj1Q deviates from P†·G·P by %g", what, d)
					}
				}
				if diagonal {
					corr, added := addCorrection(nil, g, [2]int8{int8(g.Q0), int8(g.Q1)}, x)
					if added != (len(corr) > 0) {
						t.Errorf("%s: addCorrection reported %v with %d terms", what, added, len(corr))
					}
					if err := termBitsError(corr); err != nil {
						t.Errorf("%s: addCorrection: %v", what, err)
					}
					if d := phaseDiff(conj, matProd(diagMatrix(n, corr), G), true); d > 1e-12 {
						t.Errorf("%s: Corr·G deviates from P†·G·P by %g", what, d)
					}
				}
				switch g.Kind {
				case circuit.CNOT:
					w := walker{x: x, z: z}
					w.cnot(uint(g.Q0), uint(g.Q1))
					want := matProd(G, matProd(P, dagger(G)))
					if d := phaseDiff(want, unitary(pauliCircuit(n, w.x, w.z)), true); d > 1e-12 {
						t.Errorf("%s: frame after CNOT X^%b Z^%b deviates from G·P·G† by %g", what, w.x, w.z, d)
					}
				case circuit.Swap:
					sw := func(m uint64) uint64 { return m>>1&1 | m&1<<1 }
					want := matProd(G, matProd(P, dagger(G)))
					if d := phaseDiff(want, unitary(pauliCircuit(n, sw(x), sw(z))), true); d > 1e-12 {
						t.Errorf("%s: relabeled frame deviates from G·P·G† by %g", what, d)
					}
				}
			}
		}
	}
}

// frameTestCircuit builds a circuit that exercises every frame rule: the
// states of qubits 0–3 of a 7-qubit register are routed through qubits 4–6
// by swaps, and each of two rounds gives every state a fused 1Q run (U3,
// RZ, RX), then a diagonal stretch of CPhase pairs — each applied twice in
// a row, so two gates share one term — with RZ and CZ between them and a
// swap after each, and a closing CNOT. Every qubit gets a Measure.
func frameTestCircuit(seed int64) *circuit.Circuit {
	const n, states = 7, 4
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	at := []int{0, 1, 2, 3}
	free := []int{4, 5, 6}
	pair := func() (int, int) {
		i := rng.Intn(states)
		j := (i + 1 + rng.Intn(states-1)) % states
		return at[i], at[j]
	}
	for round := 0; round < 2; round++ {
		for _, q := range at {
			c.Append(circuit.NewU3(q, rng.Float64(), rng.Float64(), rng.Float64()))
			c.Append(circuit.NewRZ(q, rng.Float64()))
			c.Append(circuit.NewRX(q, rng.Float64()))
		}
		for i := 0; i < 4; i++ {
			a, b := pair()
			c.Append(circuit.NewCPhase(a, b, rng.Float64()))
			c.Append(circuit.NewCPhase(a, b, rng.Float64()))
			c.Append(circuit.NewRZ(a, rng.Float64()))
			c.Append(circuit.NewCZ(b, a))
			s, f := rng.Intn(states), rng.Intn(len(free))
			c.Append(circuit.NewSwap(at[s], free[f]))
			at[s], free[f] = free[f], at[s]
		}
		a, b := pair()
		c.Append(circuit.NewCNOT(a, b))
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewMeasure(q))
	}
	return c
}

// frameState replays a fault plan through the executor's Pauli frame, as
// SampleNoisy does — plan, then either the ideal state for a trajectory
// whose walk ended without changing an op, or the ideal prefix up to the
// checkpoint and a walk to the end — and returns the trajectory's
// full-register state: the final frame X^x·Z^z applied to the slot state,
// deposited onto the physical register with the frame's classical bits.
// An executor on the half register leaves the walker's upper half stale;
// the slot state is rebuilt from the low half by the mirror rule
// a[x] = a[x^(2^n−1)].
func frameState(ex *Executor, faults []fault) *State {
	p := &trajPlan{faults: append([]fault(nil), faults...)}
	ex.plan(p, nil)
	s := ex.Ideal()
	if ex.replays(p) {
		s = NewState(len(ex.final))
		ex.run(s, 0, p.w.pk)
		ex.walk(&p.w, p.faults, &replayScratch{s: s})
		if ex.half {
			mirror(s.Amp)
		}
	}
	full := NewState(ex.circ.NQubits)
	full.Amp[0] = 0
	for k := range s.Amp {
		src := uint64(k) ^ p.w.x
		a := s.Amp[src]
		if bits.OnesCount64(src&p.w.z)&1 != 0 {
			a = -a
		}
		idx := []uint64{uint64(k)}
		ex.deposit(idx, p.w.cbits)
		full.Amp[idx[0]] = a
	}
	return full
}

// randomPlan draws 1–4 faults on random simulable gates of c, with uniform
// non-identity Paulis, sorted by gate as drawFaults returns them.
func randomPlan(c *circuit.Circuit, rng *rand.Rand) []fault {
	var sim []int
	for gi, g := range c.Gates {
		if g.Kind != circuit.Barrier && g.Kind != circuit.Measure {
			sim = append(sim, gi)
		}
	}
	picks := make([]int, 1+rng.Intn(4))
	for i := range picks {
		picks[i] = sim[rng.Intn(len(sim))]
	}
	for i := 1; i < len(picks); i++ {
		for j := i; j > 0 && picks[j-1] > picks[j]; j-- {
			picks[j-1], picks[j] = picks[j], picks[j-1]
		}
	}
	plan := make([]fault, len(picks))
	for i, gi := range picks {
		g := c.Gates[gi]
		if g.Arity() == 2 {
			k := 1 + rng.Intn(15)
			plan[i] = fault{gate: gi, q0: g.Q0, q1: g.Q1, d0: k & 3, d1: k >> 2 & 3}
		} else {
			plan[i] = fault{gate: gi, q0: g.Q0, q1: -1, d0: 1 + rng.Intn(3)}
		}
	}
	return plan
}

// TestFrameReplayMatchesRunNoisy: for random fault plans, the state the
// executor's Pauli-frame replay produces must equal the gate-by-gate
// oracle's (RunNoisy's) up to a global phase, to 1e-12. The plans must
// cover faults inside fused 1Q runs, on the first of two gates merged into
// one diagonal term, on swaps, Y faults on qubits without a slot, and
// trajectories that change only a diagonal stretch closing the program,
// and at least one executor must run on the half register.
func TestFrameReplayMatchesRunNoisy(t *testing.T) {
	circuits := []*circuit.Circuit{
		frameTestCircuit(1), frameTestCircuit(2), frameTestCircuit(3),
		noisyTestCircuit(5, 3, 7),
		routedTestCircuit(8, []int{1, 3, 4, 6}, 5),
		diagTailTestCircuit(1), diagTailTestCircuit(2),
		staggeredPrepCircuit(6, 1),
	}
	var inRun, firstMerged, onSwap, ySlotless, tailOnly, halves int
	rng := rand.New(rand.NewSource(99))
	for ci, c := range circuits {
		ex := NewExecutor(c)
		if ex.half {
			halves++
		}
		for trial := 0; trial < 300; trial++ {
			plan := randomPlan(c, rng)
			for _, f := range plan {
				st := &ex.sites[f.gate]
				switch {
				case st.swap:
					onSwap++
					if st.slot[0] < 0 && f.d0 == 2 || st.slot[1] < 0 && f.d1 == 2 {
						ySlotless++
					}
				case ex.prog.ops[st.op].kind == op1Q || ex.prog.ops[st.op].kind == op1QTop:
					if src := ex.srcGates(int(st.op)); int(src[len(src)-1]) != f.gate {
						inRun++
					}
				case ex.prog.ops[st.op].kind == opDiag:
					g := ex.circ.Gates[f.gate]
					for _, gj := range ex.srcGates(int(st.op)) {
						h := ex.circ.Gates[gj]
						if int(gj) > f.gate && g.Kind == h.Kind && g.Arity() == 2 && g.Q0 == h.Q0 && g.Q1 == h.Q1 {
							firstMerged++
							break
						}
					}
				}
			}
			p := &trajPlan{faults: append([]fault(nil), plan...)}
			if ex.plan(p, nil); ex.replays(p) && p.w.pk == len(ex.prog.ops) {
				tailOnly++
			}
			want := runFaults(c, plan)
			got := frameState(ex, plan)
			if d := stateDiffUpToPhase(want, got); d > 1e-12 {
				t.Fatalf("circuit %d trial %d: frame replay of %+v deviates from RunNoisy by %g", ci, trial, plan, d)
			}
		}
	}
	t.Logf("faults inside 1Q runs %d, on the first of merged gates %d, on swaps %d, Y on slotless qubits %d, plans changing only the closing stretch %d, half-register circuits %d",
		inRun, firstMerged, onSwap, ySlotless, tailOnly, halves)
	if inRun == 0 || firstMerged == 0 || onSwap == 0 || ySlotless == 0 || tailOnly == 0 || halves == 0 {
		t.Fatal("a fault placement went uncovered")
	}
}

// stateDiffUpToPhase returns max |a − φ·b| with φ the global phase that
// aligns b's largest amplitude with a's.
func stateDiffUpToPhase(a, b *State) float64 {
	return phaseDiff([][]complex128{a.Amp}, [][]complex128{b.Amp}, true)
}

// TestSampleNoisyAllocsPerTrajectory: steady-state noisy sampling allocates
// a few objects per trajectory — its RNG substream, the worker fan-out —
// and a bounded number per call, never a per-trajectory program.
func TestSampleNoisyAllocsPerTrajectory(t *testing.T) {
	c := idleTestCircuit(15, []int{0, 1, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14}, 1)
	nm := NoiseFromDevice(device.Melbourne15())
	ex := NewExecutor(c)
	rng := rand.New(rand.NewSource(3))
	ex.SampleNoisy(nm, 1024, 16, rng) // warm the scratch pools
	for _, traj := range []int{16, 64} {
		allocs := testing.AllocsPerRun(20, func() { ex.SampleNoisy(nm, 1024, traj, rng) })
		if limit := float64(4*traj + 40); allocs > limit {
			t.Errorf("%d trajectories: %.0f allocations per call, want at most %.0f", traj, allocs, limit)
		}
		t.Logf("%d trajectories: %.0f allocations per call", traj, allocs)
	}
}

// TestSampleFrameZeroAlloc: drawing a trajectory's shots into caller
// buffers allocates nothing — sampleFrame over a whole register and over a
// half register (the mirrored CDF build, with and without the top frame
// bit), buildCDF and sampleCDFInto (the shared-CDF path), and
// deposit on an executor whose idle qubits make it rewrite every sample.
func TestSampleFrameZeroAlloc(t *testing.T) {
	ex := NewExecutor(idleTestCircuit(15, []int{0, 1, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14}, 1))
	rng := rand.New(rand.NewSource(3))
	amp := RandomState(len(ex.final), rng).Amp
	cdf := make([]float64, len(amp))
	out := make([]uint64, 256)
	top := uint64(len(amp)) >> 1
	allocs := testing.AllocsPerRun(20, func() {
		sampleFrame(amp, cdf, 0b101, rng, out)
		ex.deposit(out, 1<<2)
		buildCDF(amp, cdf)
		sampleCDFInto(cdf, rng, out)
		ex.deposit(out, 0)
		sampleFrame(amp[:top], cdf, 0b101, rng, out)
		sampleFrame(amp[:top], cdf, top|0b11, rng, out)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
}

// TestSampleNoisyJoinsWorkers: both trajectory fan-outs — replayFaulty's
// waves over the faulty trajectories and forEachPlan over the idle ones —
// leave no goroutine running once SampleNoisy returns.
func TestSampleNoisyJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	col := obsv.New()
	SetCollector(col)
	defer SetCollector(nil)
	c := idleTestCircuit(15, []int{0, 1, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14}, 1)
	nm := NoiseFromDevice(device.Melbourne15())
	baseline := runtime.NumGoroutine()
	NewExecutor(c).SampleNoisy(nm, 1024, 64, rand.New(rand.NewSource(3)))
	cnt := col.Snapshot().Counters
	if cnt[obsv.CntSimReplays] < 2 || cnt[obsv.CntSimIdealReuses] < 2 {
		t.Fatalf("%d faulty and %d idle trajectories: both fan-outs need at least 2",
			cnt[obsv.CntSimReplays], cnt[obsv.CntSimIdealReuses])
	}
	leaktest.Check(t, baseline)
}

// diagTailTestCircuit builds a circuit whose program ends in a diagonal
// stretch: H and RX on qubits 0–4, a CNOT, then CZ, CPhase and RZ gates on
// those qubits up to the end, then a swap that moves qubit 4's state to
// the idle qubit 5 and a Measure on every qubit. A fault on any but the
// stretch's last gates changes the stretch, so the trajectory departs from
// the ideal program only there, and the swap's faults trail the last op.
func diagTailTestCircuit(seed int64) *circuit.Circuit {
	const n, states = 6, 5
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for q := 0; q < states; q++ {
		c.Append(circuit.NewH(q))
		c.Append(circuit.NewRX(q, rng.Float64()))
	}
	c.Append(circuit.NewCNOT(0, 1))
	for i := 0; i < 3; i++ {
		a := rng.Intn(states)
		b := (a + 1 + rng.Intn(states-1)) % states
		c.Append(circuit.NewCZ(a, b))
		c.Append(circuit.NewCPhase(b, (b+1)%states, 0.2+rng.Float64()))
		c.Append(circuit.NewRZ(a, rng.Float64()))
	}
	c.Append(circuit.NewSwap(4, 5))
	for q := 0; q < n; q++ {
		c.Append(circuit.NewMeasure(q))
	}
	return c
}

// TestSampleNoisyDiagonalTailMatchesNaive: when a trajectory departs from
// the ideal program only in the closing diagonal stretch, its X faults
// there and its faults on the trailing swap still reach the samples, byte
// for byte as in full-register simulation.
func TestSampleNoisyDiagonalTailMatchesNaive(t *testing.T) {
	nm := &NoiseModel{OneQubit: 0.02, TwoQubitDefault: 0.15, Readout: []float64{0.02, 0.01, 0.03}}
	tailOnly := 0 // trajectories whose first changed op is the closing stretch
	for seed := int64(0); seed < 4; seed++ {
		c := diagTailTestCircuit(seed)
		ex := NewExecutor(c)
		n := len(ex.prog.ops)
		if last := ex.prog.ops[n-1]; last.kind != opDiag {
			t.Fatalf("seed %d: the program ends in op kind %v, want a diagonal stretch", seed, last.kind)
		}
		base := rand.New(rand.NewSource(seed)).Int63()
		for tr := int64(0); tr < 16; tr++ {
			p := &trajPlan{faults: drawFaults(c, nm, newSubstream(base, tr), nil)}
			ex.plan(p, nil)
			if ex.replays(p) && p.w.pk == n {
				tailOnly++
			}
		}
		assertMatchesFullRegister(t, c, nm, seed)
	}
	if tailOnly == 0 {
		t.Fatal("no trajectory changed only the closing diagonal stretch")
	}
}
