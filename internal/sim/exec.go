package sim

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/circuit"
	"repro/internal/obsv"
)

// Fault-sparse noisy trajectories. At realistic error rates a trajectory
// draws a handful of Pauli faults, and each one changes only the few gates
// it fails to commute with. The Executor below draws every trajectory's
// fault sites up front (the state-vector evolution consumes no randomness,
// so plan-then-replay draws the exact same RNG stream as interleaved
// draw-and-apply) and carries the faults as a Pauli frame over the one
// compacted ideal program (see frame.go):
//
//   - fault-free trajectories, and faulty ones whose frame changes no op,
//     sample from the shared ideal final state — zero gate applications;
//   - every other trajectory replays from a checkpoint at its first changed
//     op: trajectories are sorted by that op and a single rolling prefix
//     state advances monotonically through the ideal program, so each
//     prefix op is applied once per SampleNoisy call no matter how many
//     trajectories branch off it;
//   - each trajectory owns a private RNG substream derived from one draw of
//     the caller's generator (splitmix64 over the trajectory index), so
//     trajectories fan out across cores with results that are byte-identical
//     regardless of GOMAXPROCS.
//
// The substream derivation intentionally changes the RNG stream relative to
// the pre-fusion SampleNoisy (which threaded one shared *rand.Rand through
// every trajectory sequentially); BENCH_baseline.json was refreshed in the
// same change. Within a trajectory's stream, drawFaults still consumes draws
// in the interleaved order, so the gate-by-gate reference the tests keep
// (reference_test.go) runs the same faults from the same stream.

// fault is one planned Pauli injection: after applying circuit gate index
// gate, apply Pauli digit d0 to q0 and (for two-qubit faults, q1 ≥ 0) d1 to
// q1. Digits are base-4: 0=I, 1=X, 2=Y, 3=Z.
type fault struct {
	gate   int
	q0, q1 int
	d0, d1 int
}

// drawFaults samples the fault plan of one trajectory and appends it to
// buf, consuming rng in the exact per-gate order of the original
// interleaved implementation (per CNOT-equivalent for two-qubit gates; see
// NoiseModel).
func drawFaults(c *circuit.Circuit, nm *NoiseModel, rng *rand.Rand, buf []fault) []fault {
	for gi, g := range c.Gates {
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
		case g.Arity() == 2:
			e := nm.twoQubitError(g.Q0, g.Q1)
			for i := 0; i < circuit.NativeCNOTCost(g.Kind); i++ {
				if rng.Float64() < e {
					k := 1 + rng.Intn(15)
					buf = append(buf, fault{gate: gi, q0: g.Q0, q1: g.Q1, d0: k & 3, d1: (k >> 2) & 3})
				}
			}
		default:
			if nm.OneQubit > 0 && rng.Float64() < nm.OneQubit {
				buf = append(buf, fault{gate: gi, q0: g.Q0, q1: -1, d0: rng.Intn(3) + 1})
			}
		}
	}
	return buf
}

// substreamSeed derives the trajectory-t seed from one base draw of the
// caller's generator via splitmix64 — independent-looking streams from a
// single documented seed, stable across trajectory counts.
func substreamSeed(base, t int64) int64 {
	z := uint64(base) + (uint64(t)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// Scratch pools shared by all executors: trajectory replay states and CDF
// buffers are recycled so steady-state noisy sampling allocates only its
// output slice.
var (
	statePool sync.Pool
	cdfPool   sync.Pool
)

// getState returns a pooled state of n qubits with undefined contents —
// callers overwrite every amplitude (copy or Reset) before use.
func getState(n int) *State {
	if v := statePool.Get(); v != nil {
		if s := v.(*State); s.N == n {
			return s
		}
	}
	return NewState(n)
}

func putState(s *State) { statePool.Put(s) }

// getCDF returns a pooled float64 buffer of length n, contents undefined.
func getCDF(n int) []float64 {
	if v := cdfPool.Get(); v != nil {
		if b := *v.(*[]float64); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

func putCDF(b []float64) { cdfPool.Put(&b) }

// Executor caches the fused program, the ideal final state and its sampling
// CDF for one circuit, so repeated ideal and noisy sampling of the same
// compiled circuit (the ARG measurement pattern: one noiseless run, many
// noisy trajectories) shares a single ideal execution. Not safe for
// concurrent use; the parallelism lives inside SampleNoisy.
//
// The executor simulates a register of slots, one per qubit that carries
// state, rather than the circuit's whole register. A physical qubit gets a
// slot when its first simulable gate is not a swap; every swap then moves
// slots between physical qubits instead of moving amplitudes. A compiled
// QAOA circuit on a 15-qubit device therefore evolves 2^p amplitudes for
// its p logical qubits, however many device qubits its routing passes
// through, and spends nothing on swaps. This is exact:
//
//   - a physical qubit without a slot is in a basis state — |0⟩ in the ideal
//     circuit, or a bit that Pauli faults flipped in a noisy trajectory — so
//     the full-register amplitudes off that bit value are exactly zero, and
//     every kernel pairs amplitudes within one value of it;
//   - a swap is a permutation, so relabeling loses nothing;
//   - the fused program is built on the physical circuit and then mapped
//     onto the slots op by op (compactProgram), so every amplitude goes
//     through the same multiplications as in the full register;
//   - slots are numbered in the order of the physical qubits they end on,
//     so the CDF lists the nonzero probabilities in physical index order
//     and sampling lands on the same basis state.
//
// Fault plans are drawn on the physical circuit (two-qubit error rates are
// keyed by physical edge) and samples are deposited back onto the physical
// register before readout noise, so the RNG stream matches full-register
// simulation and every sample does up to rounding (see DESIGN.md §8).
//
// When the circuit is MaxCut QAOA in shape, the executor evolves only the
// low half of the slot register once every slot is prepared (halfStart).
type Executor struct {
	circ *circuit.Circuit // the physical circuit; fault plans are drawn on it
	// start maps each physical qubit to the slot it holds before the first
	// gate (-1: none); final lists the physical qubit each slot ends on,
	// ascending.
	start, final []int
	prog         *Program // the ideal program on the slots
	// sites places the faults drawn after each circuit gate in prog, and
	// op k covers the circuit gates opGates[opStart[k]:opStart[k+1]], in
	// circuit order.
	sites            []faultSite
	opGates, opStart []int32
	// With half set, the ops from hk on run on the low half of the slot
	// register (see halfStart); otherwise hk is len(prog.ops).
	hk       int
	half     bool
	ideal    *State
	idealCDF []float64
}

// faultSite places the faults drawn after one circuit gate in the
// executor's program: inside op, after the gate, or for a swap, before op
// (swaps only move slots and leave no op behind).
type faultSite struct {
	op   int32
	swap bool
	// slot is the slot of each gate qubit after the gate (-1: none). A
	// qubit without one is in a basis state, and dest is the physical
	// qubit its bit ends on.
	slot, dest [2]int8
}

// NewExecutor lays c out on its slot register, fuses it and returns an
// executor over it.
func NewExecutor(c *circuit.Circuit) *Executor {
	e := &Executor{circ: c}
	var ok bool
	if e.start, e.final, ok = slotLayout(c, false); !ok {
		e.start, e.final, _ = slotLayout(c, true)
	}
	e.sites = make([]faultSite, len(c.Gates))
	at := append([]int(nil), e.start...)
	for i, g := range c.Gates {
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
			// no op covers it, and no fault follows it
		case g.Kind == circuit.Swap:
			at[g.Q0], at[g.Q1] = at[g.Q1], at[g.Q0]
			e.sites[i] = faultSite{swap: true, slot: [2]int8{int8(at[g.Q0]), int8(at[g.Q1])}}
		case g.Arity() == 2:
			e.sites[i].slot = [2]int8{int8(at[g.Q0]), int8(at[g.Q1])}
		default:
			e.sites[i].slot = [2]int8{int8(at[g.Q0]), -1}
		}
	}
	e.prog = compactProgram(Fuse(c), append([]int(nil), e.start...), len(e.final))

	// Walking back from the end, where[q] is the physical qubit that the
	// content of q at that point ends on.
	where := make([]int, c.NQubits)
	for q := range where {
		where[q] = q
	}
	e.opStart = make([]int32, len(e.prog.ops)+1)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g, st := c.Gates[i], &e.sites[i]
		st.op = e.prog.src[i]
		if g.Kind == circuit.Swap {
			st.dest = [2]int8{int8(where[g.Q0]), int8(where[g.Q1])}
			where[g.Q0], where[g.Q1] = where[g.Q1], where[g.Q0]
		} else if st.op >= 0 {
			e.opStart[st.op+1]++
		}
	}
	for k := range e.prog.ops {
		e.opStart[k+1] += e.opStart[k]
	}
	e.opGates = make([]int32, e.opStart[len(e.prog.ops)])
	next := append([]int32(nil), e.opStart...)
	for i, st := range e.sites {
		if st.op >= 0 && !st.swap {
			e.opGates[next[st.op]] = int32(i)
			next[st.op]++
		}
	}
	e.hk, e.half = len(e.prog.ops), false
	if hk, ok := e.halfStart(); ok {
		e.hk, e.half = hk, true
		e.foldTop(e.prog.ops[hk:])
		if col := Collector(); col.Enabled() {
			col.Inc(obsv.CntSimHalfRegisters)
		}
	}
	return e
}

// Half-register simulation. A MaxCut QAOA state is unchanged when every
// qubit flips: X^{⊗n} commutes with the cost's ZZ terms and the RX mixer,
// and |+⟩^n is a +1 eigenvector of it (Shaydulin, Hadfield, Hogg & Safro,
// "Classical symmetries and the Quantum Approximate Optimization
// Algorithm", 2021). So a[x] = a[x^(2^n−1)], and the low half of the slot
// register, top slot bit clear, holds every amplitude. halfStart finds the
// op from which the executor may evolve only that half, and the walker's
// states, which run the ops conjugated by their Pauli frames, stay
// symmetric too: P·M·P and a correction of a parity term commute with the
// global flip as M does. The low half then goes through the very
// multiplications it goes through in the full register (apply1QTop), so
// samples are unchanged bit for bit (DESIGN.md §8).

// halfStart reports whether the executor's circuit allows half-register
// simulation and, if so, hk: the op just past the op that holds the last
// slot's preparation H. It requires at least two slots and:
//
//   - every slot's first gate, swaps included, is an H (its preparation):
//     a slot is |0⟩ and untouched by faults until then, and moving every
//     preparation to the front shows the state at hk to be symmetric;
//   - every other 1Q gate has m00 == m11 and m01 == m10 exactly, so it,
//     its frame conjugates and their products commute with the global
//     flip and keep that shape;
//   - every other 2Q gate is a Swap or a CPhase: a CNOT or CZ falls back;
//   - the ops from hk on are 1Q ops of that shape or diagonal ops of
//     2-bit parity terms.
func (e *Executor) halfStart() (int, bool) {
	n := len(e.final)
	if n < 2 {
		return 0, false
	}
	var prepped uint64 // slot bits
	has := func(s int8) bool { return prepped>>uint(s)&1 != 0 }
	last := -1 // the gate of the last preparation
	for gi, g := range e.circ.Gates {
		slot := e.sites[gi].slot
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
		case g.Kind == circuit.Swap:
			for _, s := range slot {
				if s >= 0 && !has(s) {
					return 0, false
				}
			}
		case g.Arity() == 2:
			if g.Kind != circuit.CPhase || !has(slot[0]) || !has(slot[1]) {
				return 0, false
			}
		case !has(slot[0]):
			if g.Kind != circuit.H {
				return 0, false
			}
			prepped |= 1 << uint(slot[0])
			last = gi
		default:
			if !flipSymmetric(mat1Q(g)) {
				return 0, false
			}
		}
	}
	if prepped != 1<<uint(n)-1 {
		return 0, false
	}
	hk := int(e.prog.src[last]) + 1
	for _, op := range e.prog.ops[hk:] {
		switch op.kind {
		case op1Q:
			if !flipSymmetric(op.m) {
				return 0, false
			}
		case opDiag:
			for _, t := range op.terms {
				if !t.parity || bits.OnesCount64(t.mask) != 2 {
					return 0, false
				}
			}
		default:
			return 0, false
		}
	}
	return hk, true
}

// flipSymmetric reports whether m = [[a, b], [b, a]], a 1Q matrix that
// commutes with X.
func flipSymmetric(m [2][2]complex128) bool { return m[0][0] == m[1][1] && m[0][1] == m[1][0] }

// foldTop rewrites ops, the program from hk on, for the half register: a
// 1Q op on the top slot becomes op1QTop, and every term folds its top bit
// (foldTerms).
func (e *Executor) foldTop(ops []fusedOp) {
	top := len(e.final) - 1
	for i := range ops {
		if op := &ops[i]; op.kind == op1Q && op.q0 == top {
			op.kind = op1QTop
		} else if op.kind == opDiag {
			e.foldTerms(op.terms)
		}
	}
}

// foldTerms rewrites parity terms for the half register, where the top bit
// is clear: a term on {i, top} selects its factor by bit i alone and so
// becomes a 1-bit term on i.
func (e *Executor) foldTerms(terms []diagTerm) {
	top := uint64(1) << uint(len(e.final)-1)
	for i := range terms {
		if terms[i].mask&top != 0 {
			terms[i].mask ^= top
		}
	}
}

// register returns the register that op k runs on, the part of s that the
// ops from k on read and write: s, a register of every slot, or from hk on
// in half mode its low half.
func (e *Executor) register(s *State, k int) State {
	if e.half && k >= e.hk {
		return State{N: s.N - 1, Amp: s.Amp[:len(s.Amp)>>1]}
	}
	return *s
}

// run applies the ideal ops [from, to) to s, a register of every slot: the
// ops before hk on all of it, the rest on its low half.
func (e *Executor) run(s *State, from, to int) {
	if from < e.hk {
		e.prog.apply(s, from, min(to, e.hk))
		from = e.hk
	}
	if from < to {
		h := e.register(s, from)
		e.prog.apply(&h, from, to)
	}
}

// mirror fills the upper half of a symmetric register from its low half:
// the partner of index h+x is h−1−x.
func mirror(amp []complex128) {
	h := len(amp) >> 1
	for x := 0; x < h; x++ {
		amp[h+x] = amp[h-1-x]
	}
}

// srcGates returns the circuit gates op k covers, in circuit order.
func (e *Executor) srcGates(k int) []int32 { return e.opGates[e.opStart[k]:e.opStart[k+1]] }

// slotLayout walks c's gates and assigns slots: to each physical qubit
// whose first simulable gate is not a swap or, with every set, to each
// qubit any simulable gate touches. Swaps move slots. It reports false when
// a non-swap gate reaches a qubit that has lost its slot to a swap (it is
// |0⟩ again); compiled circuits never do that, and NewExecutor then falls
// back to every touched qubit, among which swaps only move slots. Slots are
// numbered in the order of the physical qubits they end on.
func slotLayout(c *circuit.Circuit, every bool) (start, final []int, ok bool) {
	at := make([]int, c.NQubits) // physical qubit → lineage (-1: none)
	seen := make([]bool, c.NQubits)
	for q := range at {
		at[q] = -1
	}
	var from []int // lineage → the physical qubit it starts on
	claim := func(q int) {
		if at[q] < 0 {
			ok = ok && !seen[q]
			at[q] = len(from)
			from = append(from, q)
		}
		seen[q] = true
	}
	simulable := func(g circuit.Gate) bool { return g.Kind != circuit.Barrier && g.Kind != circuit.Measure }
	ok = true
	if every {
		for _, g := range c.Gates {
			if simulable(g) {
				claim(g.Q0)
				if g.Arity() == 2 {
					claim(g.Q1)
				}
			}
		}
	}
	for _, g := range c.Gates {
		switch {
		case !simulable(g):
		case g.Kind == circuit.Swap:
			seen[g.Q0], seen[g.Q1] = true, true
			at[g.Q0], at[g.Q1] = at[g.Q1], at[g.Q0]
		default:
			claim(g.Q0)
			if g.Arity() == 2 {
				claim(g.Q1)
			}
		}
	}
	rank := make([]int, len(from))
	for q, l := range at {
		if l >= 0 {
			rank[l] = len(final)
			final = append(final, q)
		}
	}
	start = make([]int, c.NQubits)
	for q := range start {
		start[q] = -1
	}
	for l, q := range from {
		start[q] = rank[l]
	}
	return start, final, ok
}

// Ideal returns the shared noiseless final state over the slot register
// (slot i ends on the i-th lowest physical qubit of the layout), computing
// it on first use. Callers must treat it as read-only.
func (e *Executor) Ideal() *State {
	if e.ideal == nil {
		col := Collector()
		sp := col.StartSpan(obsv.SpanSimIdealRun)
		s := NewState(len(e.final))
		ops := len(e.prog.ops)
		e.run(s, 0, ops)
		if e.half {
			mirror(s.Amp)
		}
		e.ideal = s
		if col.Enabled() {
			col.Inc(obsv.CntSimRuns)
			col.Add(obsv.CntSimGates, int64(e.prog.gates))
			col.Add(obsv.CntSimFusedOps, int64(ops))
			col.Add(obsv.CntSimAmpOps, int64(e.hk)*int64(len(s.Amp))+int64(ops-e.hk)*int64(len(e.register(s, ops).Amp)))
		}
		sp.End()
	}
	return e.ideal
}

// idealCDFBuf returns the shared CDF of the ideal state, building it on
// first use.
func (e *Executor) idealCDFBuf() []float64 {
	if e.idealCDF == nil {
		st := e.Ideal()
		e.idealCDF = make([]float64, len(st.Amp))
		buildCDF(st.Amp, e.idealCDF)
	}
	return e.idealCDF
}

// SampleIdeal draws shots noiseless samples from the cached ideal state.
func (e *Executor) SampleIdeal(rng *rand.Rand, shots int) []uint64 {
	out := make([]uint64, shots)
	sampleCDFInto(e.idealCDFBuf(), rng, out)
	e.deposit(out, 0)
	return out
}

// deposit rewrites slot-register sample indices in place as physical basis
// indices: bit i of a sample moves to bit final[i], and every qubit without
// a slot reads its bit from cbits.
func (e *Executor) deposit(samples []uint64, cbits uint64) {
	if len(e.final) == e.circ.NQubits {
		return // every qubit holds a slot: slot i is physical qubit i
	}
	for i, k := range samples {
		x := cbits
		for b, q := range e.final {
			x |= (k >> uint(b) & 1) << uint(q)
		}
		samples[i] = x
	}
}

const noSlot = "sim: a gate reached a qubit without a register slot"

// compactProgram maps p, the ideal program fused on the physical circuit,
// onto the register of slots, op by op and in place. at maps each physical
// qubit to its slot (-1: none) before p and is updated in place. Swaps only
// move slots and drop out of the program, and p.src then maps a swap's
// gate to the first op after it. slotLayout gives a slot to every qubit a
// non-swap gate touches, so every other op lands on slots, and every
// amplitude goes through the same multiplications, by the same factors and
// in the same order, as in the full register.
func compactProgram(p *Program, at []int, slots int) *Program {
	slot := func(q int) int {
		if at[q] < 0 {
			panic(noSlot)
		}
		return at[q]
	}
	ops := p.ops[:0]
	kept := make([]int32, len(p.ops)) // op index → index in the compacted program
	for i, op := range p.ops {
		kept[i] = int32(len(ops))
		switch op.kind {
		case opSwap:
			at[op.q0], at[op.q1] = at[op.q1], at[op.q0]
			continue
		case opCNOT:
			op.q0, op.q1 = slot(op.q0), slot(op.q1)
		case op1Q:
			op.q0 = slot(op.q0)
		case opDiag:
			for t := range op.terms {
				var live uint64
				for m := op.terms[t].mask; m != 0; m &= m - 1 {
					live |= 1 << uint(slot(bits.TrailingZeros64(m)))
				}
				op.terms[t].mask = live
			}
		}
		ops = append(ops, op)
	}
	for gi, k := range p.src {
		if k >= 0 {
			p.src[gi] = kept[k]
		}
	}
	p.n, p.ops = slots, ops
	return p
}

// trajPlan is one trajectory's predrawn execution plan: its private RNG
// substream (already advanced past the fault draws), its fault sites, the
// slice of the shared output it fills, and its frame walker, which plan
// leaves at the trajectory's first changed op.
type trajPlan struct {
	rng    *rand.Rand
	faults []fault
	out    []uint64
	w      walker
	gates  int64 // circuit gates its replay covered
}

// SampleNoisy draws shots measurement outcomes from the noisy execution of
// the executor's circuit, spread over the given number of independent
// Pauli-fault trajectories, applying readout bit-flips to every sample.
// Results are deterministic in rng's state and independent of GOMAXPROCS.
// Zero shots return an empty slice without drawing from rng.
func (e *Executor) SampleNoisy(nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return []uint64{}
	}
	col := Collector()
	span := col.StartSpan(obsv.SpanSimSampleNoisy)
	defer span.End()
	if trajectories < 1 {
		trajectories = 1
	}
	if trajectories > shots {
		trajectories = shots
	}
	base := rng.Int63()
	out := make([]uint64, shots)
	nb, extra := shots/trajectories, shots%trajectories
	plans := make([]trajPlan, 0, trajectories)
	// All fault plans share one buffer; ends[i] closes plan i's.
	var all []fault
	ends := make([]int, 0, trajectories)
	off := 0
	for t := 0; t < trajectories; t++ {
		k := nb
		if t < extra {
			k++
		}
		if k == 0 {
			continue
		}
		trng := rand.New(rand.NewSource(substreamSeed(base, int64(t))))
		all = drawFaults(e.circ, nm, trng, all)
		ends = append(ends, len(all))
		plans = append(plans, trajPlan{rng: trng, out: out[off : off+k]})
		off += k
	}

	// Trajectories whose frame changes no op sample the ideal state.
	var idle, faulty []*trajPlan
	var corr []diagTerm
	lo := 0
	for i := range plans {
		p := &plans[i]
		p.faults, lo = all[lo:ends[i]], ends[i]
		corr = e.plan(p, corr)
		if e.replays(p) {
			faulty = append(faulty, p)
		} else {
			idle = append(idle, p)
		}
	}

	var replayGates int64
	if len(faulty) > 0 {
		replayGates = e.replayFaulty(faulty, nm)
	}

	if len(idle) > 0 {
		cdf, ideal := e.idealCDFBuf(), e.Ideal()
		forEachPlan(idle, func(p *trajPlan) {
			if p.w.x == 0 {
				sampleCDFInto(cdf, p.rng, p.out)
			} else {
				own := getCDF(len(cdf))
				sampleFrame(ideal.Amp, own, p.w.x, p.rng, p.out)
				putCDF(own)
			}
			e.deposit(p.out, p.w.cbits)
			flipReadoutAll(p.out, nm, p.rng)
		})
	}

	if col.Enabled() {
		col.Add(obsv.CntSimNoisyShots, int64(len(out)))
		col.Add(obsv.CntSimTrajectories, int64(len(plans)))
		col.Add(obsv.CntSimIdealReuses, int64(len(idle)))
		col.Add(obsv.CntSimReplays, int64(len(faulty)))
		col.Add(obsv.CntSimCheckpoints, int64(len(faulty)))
		col.Add(obsv.CntSimReplayGates, replayGates)
	}
	return out
}

// replays reports whether trajectory p, after plan, changes an op of the
// program. Only a trajectory that changes none was walked to the end.
func (e *Executor) replays(p *trajPlan) bool { return p.w.k < len(e.prog.ops) }

// replayFaulty runs the replayed trajectories in waves of GOMAXPROCS: a
// serial phase advances the rolling ideal prefix to each trajectory's
// checkpoint (sorted order keeps the prefix monotone) and copies it into
// the worker's scratch state; the parallel phase carries the frame to the
// end, samples and applies readout noise. Returns the number of circuit
// gates the prefix and the replays covered.
func (e *Executor) replayFaulty(faulty []*trajPlan, nm *NoiseModel) int64 {
	sort.SliceStable(faulty, func(i, j int) bool { return faulty[i].w.pk < faulty[j].w.pk })
	workers := runtime.GOMAXPROCS(0)
	if workers > len(faulty) {
		workers = len(faulty)
	}
	n := len(e.final)
	prefix := getState(n)
	defer putState(prefix)
	prefix.Reset()
	var gates int64
	pk := 0 // the ops the prefix holds
	scratch := make([]*State, workers)
	cdfs := make([][]float64, workers)
	corrs := make([][]diagTerm, workers)
	for w := range scratch {
		scratch[w] = getState(n)
		cdfs[w] = getCDF(len(prefix.Amp))
		defer putState(scratch[w])
		defer putCDF(cdfs[w])
	}
	for w0 := 0; w0 < len(faulty); w0 += workers {
		wave := faulty[w0:min(w0+workers, len(faulty))]
		for w, p := range wave {
			e.run(prefix, pk, p.w.pk)
			gates += int64(e.opStart[p.w.pk] - e.opStart[pk])
			pk = p.w.pk
			copy(scratch[w].Amp, e.register(prefix, pk).Amp)
		}
		if len(wave) == 1 {
			corrs[0] = e.finishTrajectory(scratch[0], cdfs[0], corrs[0], wave[0], nm)
			continue
		}
		var wg sync.WaitGroup
		for w, p := range wave {
			wg.Add(1)
			go func(w int, p *trajPlan) {
				defer wg.Done()
				corrs[w] = e.finishTrajectory(scratch[w], cdfs[w], corrs[w], p, nm)
			}(w, p)
		}
		wg.Wait()
	}
	for _, p := range faulty {
		gates += p.gates
	}
	return gates
}

// finishTrajectory carries the trajectory's frame from its checkpoint s to
// the end of the program, then samples its shots through the final X mask
// and applies readout flips, all with the trajectory's private RNG
// substream. corr is the worker's correction scratch, returned for reuse.
func (e *Executor) finishTrajectory(s *State, cdf []float64, corr []diagTerm, p *trajPlan, nm *NoiseModel) []diagTerm {
	p.gates = int64(e.opStart[len(e.prog.ops)] - e.opStart[p.w.pk])
	corr = e.walk(&p.w, p.faults, s, corr)
	p.gates += p.w.corrGates
	sampleFrame(e.register(s, len(e.prog.ops)).Amp, cdf, p.w.x, p.rng, p.out)
	e.deposit(p.out, p.w.cbits)
	flipReadoutAll(p.out, nm, p.rng)
	return corr
}

// sampleFrame fills out with draws from the state X^x·|a⟩, building its
// CDF in cdf by reading a[i^x] for basis index i: the probabilities, in
// the order, that applying the X gates would have produced. amp is a, or
// when it is half as long as cdf the low half of a register that flipping
// every bit leaves unchanged. Then, with h = len(amp) and xl = x folded to
// the low half (x^(2h−1) when x has the top bit), index i < h reads
// amp[i^xl] and index h+i reads its mirror amp[i^xl^(h−1)].
func sampleFrame(amp []complex128, cdf []float64, x uint64, rng *rand.Rand, out []uint64) {
	var acc float64
	if len(amp) == len(cdf) {
		for i := range cdf {
			a := amp[uint64(i)^x]
			acc += real(a)*real(a) + imag(a)*imag(a)
			cdf[i] = acc
		}
	} else {
		h := len(amp)
		xl := x
		if xl&uint64(h) != 0 {
			xl ^= uint64(2*h - 1)
		}
		for i := 0; i < h; i++ {
			a := amp[uint64(i)^xl]
			acc += real(a)*real(a) + imag(a)*imag(a)
			cdf[i] = acc
		}
		xu := xl ^ uint64(h-1)
		for i := 0; i < h; i++ {
			a := amp[uint64(i)^xu]
			acc += real(a)*real(a) + imag(a)*imag(a)
			cdf[h+i] = acc
		}
	}
	for k := range out {
		out[k] = uint64(searchCDF(cdf, rng.Float64()*acc))
	}
}

// forEachPlan applies f to every plan, fanning out across cores when there
// is more than one worker available. Plans write disjoint output regions
// and own their RNGs, so the result is order-independent.
func forEachPlan(plans []*trajPlan, f func(*trajPlan)) {
	if runtime.GOMAXPROCS(0) == 1 || len(plans) == 1 {
		for _, p := range plans {
			f(p)
		}
		return
	}
	var wg sync.WaitGroup
	for _, p := range plans {
		wg.Add(1)
		go func(p *trajPlan) {
			defer wg.Done()
			f(p)
		}(p)
	}
	wg.Wait()
}

// flipReadoutAll applies per-qubit readout bit-flips to every sample.
func flipReadoutAll(samples []uint64, nm *NoiseModel, rng *rand.Rand) {
	if nm.Readout == nil {
		return
	}
	for i, x := range samples {
		samples[i] = flipReadout(x, nm.Readout, rng)
	}
}
