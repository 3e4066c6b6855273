package sim

import (
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
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
//     op: trajectories are grouped by that op, and the executor's one ideal
//     run (which Ideal() also finishes) advances monotonically through the
//     program and serves each group in turn, so each ideal op is applied
//     once per executor no matter how many trajectories branch off it —
//     unless the run has already passed a checkpoint (see Executor);
//   - each trajectory owns a private RNG substream, a PCG seeded from one
//     draw of the caller's generator and the trajectory index (newSubstream),
//     so trajectories fan out across cores with results that are
//     byte-identical regardless of GOMAXPROCS.
//
// Within a trajectory's stream, drawFaults consumes draws in the
// interleaved per-gate order, so the gate-by-gate reference the tests keep
// (reference_test.go) runs the same faults from the same stream. The shots
// then draw as sorted targets walked once against the CDF (sampleCDFInto),
// and the readout flips as each qubit's gaps between flipped shots
// (flipReadoutAll); the reference samples and flips through those same
// helpers, so the two agree byte for byte. Any change to these draws
// changes the samples and the quality metrics, and BENCH_baseline.json is
// re-recorded with it; the exact-channel oracle (channel_test.go) is what
// holds the samples to the NoiseModel's distribution.

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

// pcgSource is the PCG generator of math/rand/v2 as the rand.Source64 a
// *rand.Rand draws from: it seeds in O(1) and holds 16 bytes.
type pcgSource struct{ randv2.PCG }

func (s *pcgSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

// newSubstream returns trajectory t's private generator: a PCG seeded with
// substreamSeed(base, t) and t.
func newSubstream(base, t int64) *rand.Rand {
	src := new(pcgSource)
	src.PCG.Seed(uint64(substreamSeed(base, t)), uint64(t))
	return rand.New(src)
}

// scratchPool recycles replay scratch across executors, so steady-state
// noisy sampling allocates little beyond its output slice.
var scratchPool sync.Pool

// getScratch returns pooled replay scratch for a register of n slots: a
// state of n qubits, contents undefined — callers overwrite what they
// read.
func getScratch(n int) *replayScratch {
	if v := scratchPool.Get(); v != nil {
		if sc := v.(*replayScratch); sc.s.N == n {
			return sc
		}
	}
	return &replayScratch{s: NewState(n)}
}

func putScratch(sc *replayScratch) {
	sc.src = nil
	scratchPool.Put(sc)
}

// Executor caches the fused program, the ideal final state and its sampling
// CDF for one circuit, so repeated ideal and noisy sampling of the same
// compiled circuit (the ARG measurement pattern: many noisy trajectories,
// one noiseless run) shares a single ideal execution: one run that only
// moves forward (roll), from which the trajectories' checkpoints and then
// Ideal() both read. Sampled noise first, as exp.MeasureARG does, each
// ideal op runs once per executor. A SampleNoisy after the run has passed
// a checkpoint rebuilds it in scratch from |0…0⟩. Not safe for concurrent
// use; the parallelism lives inside SampleNoisy.
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
	hk   int
	half bool
	// roll is the ideal run: it holds the ideal ops [0, rk), only moves
	// forward, and is the ideal state once it reaches the end.
	roll     *State
	rk       int
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

// run applies the ideal ops [from, to) to s, a register of every slot that
// holds the ops [0, from): the ops before hk on all of it, the rest on its
// low half. It returns the amplitudes the ops swept, the register's length
// per op.
func (e *Executor) run(s *State, from, to int) int64 {
	var amps int64
	if from < e.hk && from < to {
		k := min(to, e.hk)
		e.prog.apply(s, from, k)
		amps += int64(k-from) * int64(len(s.Amp))
		from = k
	}
	if from < to {
		h := e.register(s, from)
		e.prog.apply(&h, from, to)
		amps += int64(to-from) * int64(len(h.Amp))
	}
	return amps
}

// stop returns the end of the ops that run on op k's register.
func (e *Executor) stop(k int) int {
	if k < e.hk {
		return e.hk
	}
	return len(e.prog.ops)
}

// advance carries the ideal run on to op `to` and returns the amplitudes
// its ops swept.
func (e *Executor) advance(to int) int64 {
	if e.roll == nil {
		e.roll = NewState(len(e.final))
	}
	amps := e.run(e.roll, e.rk, to)
	e.rk = to
	return amps
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
// (slot i ends on the i-th lowest physical qubit of the layout), carrying
// the ideal run to the end on first use. Callers must treat it as
// read-only.
func (e *Executor) Ideal() *State {
	if e.ideal == nil {
		sp := Collector().StartSpan(obsv.SpanSimIdealRun)
		e.finish()
		sp.End()
	}
	return e.ideal
}

// finish carries the ideal run to the end, unless it is there already, and
// returns the ideal state. The caller times it: sim/ideal_run for Ideal(),
// sim/sample_noisy for the tail SampleNoisy finishes.
func (e *Executor) finish() *State {
	if e.ideal == nil {
		from := e.rk
		amps := e.advance(len(e.prog.ops))
		if e.half {
			mirror(e.roll.Amp)
		}
		e.ideal = e.roll
		if col := Collector(); col.Enabled() {
			col.Inc(obsv.CntSimRuns)
			col.Add(obsv.CntSimGates, int64(e.prog.gates))
			col.Add(obsv.CntSimFusedOps, int64(e.rk-from))
			col.Add(obsv.CntSimAmpOps, amps)
		}
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

// SampleIdeal draws shots noiseless samples from the cached ideal state,
// in register order (see sampleCDFInto).
func (e *Executor) SampleIdeal(rng *rand.Rand, shots int) []uint64 {
	out := make([]uint64, shots)
	sampleCDFInto(e.idealCDFBuf(), rng, out)
	e.deposit(out, 0)
	return out
}

// SampleIdeal draws shots noiseless samples from c. It is the one-shot form
// of Executor.SampleIdeal.
func SampleIdeal(c *circuit.Circuit, rng *rand.Rand, shots int) []uint64 {
	return NewExecutor(c).SampleIdeal(rng, shots)
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
	amps   int64 // amplitudes its replay swept
}

// SampleNoisy draws shots measurement outcomes from the noisy execution of
// the executor's circuit, spread over the given number of independent
// Pauli-fault trajectories, applying readout bit-flips to every sample.
// Results are deterministic in rng's state, of which it takes one Int63,
// and independent of GOMAXPROCS. A trajectory's shots are drawn in register
// order (see sampleCDFInto), so shot order carries no randomness: use the
// samples as a multiset. Zero shots return an empty slice without drawing
// from rng.
func (e *Executor) SampleNoisy(nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return []uint64{}
	}
	span := Collector().StartSpan(obsv.SpanSimSampleNoisy)
	defer span.End()
	return e.sampleNoisy(nm, shots, trajectories, rng)
}

// sampleNoisy is SampleNoisy for shots > 0, timed by the caller.
func (e *Executor) sampleNoisy(nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	col := Collector()
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
		trng := newSubstream(base, int64(t))
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

	var replayGates, replayAmps, idealOps int64
	if len(faulty) > 0 {
		replayGates, replayAmps, idealOps = e.replayFaulty(faulty, nm)
	}

	if len(idle) > 0 {
		ideal := e.finish()
		cdf := e.idealCDFBuf()
		forEachPlan(idle, func(p *trajPlan) {
			if p.w.x == 0 {
				sampleCDFInto(cdf, p.rng, p.out)
			} else {
				sc := getScratch(len(e.final))
				sampleFrame(ideal.Amp, sc.cdfBuf(), p.w.x, p.rng, p.out)
				putScratch(sc)
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
		col.Add(obsv.CntSimFusedOps, idealOps)
		col.Add(obsv.CntSimAmpOps, replayAmps)
	}
	return out
}

// replays reports whether trajectory p, after plan, changes an op of the
// program. Only a trajectory that changes none was walked to the end.
func (e *Executor) replays(p *trajPlan) bool { return p.w.k < len(e.prog.ops) }

// replayFaulty runs the replayed trajectories grouped by checkpoint, in
// checkpoint order, so that every state it carries forward only moves
// forward. For each group a serial step finds the checkpoint (source): the
// ideal run carried on to it or, when the run has already passed it,
// prefix, scratch carried on from |0…0⟩. The group then runs in waves of
// GOMAXPROCS, each trajectory copying the checkpoint into its worker's
// state, carrying its frame to the end, sampling and applying readout
// noise. Returns the circuit gates and the amplitudes the ideal run, the
// prefix and the replays covered, and the ideal ops the run and the prefix
// applied.
func (e *Executor) replayFaulty(faulty []*trajPlan, nm *NoiseModel) (gates, amps, ops int64) {
	sort.SliceStable(faulty, func(i, j int) bool { return faulty[i].w.pk < faulty[j].w.pk })
	workers := min(runtime.GOMAXPROCS(0), len(faulty))
	n := len(e.final)
	scs := make([]*replayScratch, workers)
	for w := range scs {
		scs[w] = getScratch(n)
		defer putScratch(scs[w])
	}
	var prefix *replayScratch
	pk := 0 // the ops prefix holds
	defer func() {
		if prefix != nil {
			putScratch(prefix)
		}
	}()
	for len(faulty) > 0 {
		k, end := faulty[0].w.pk, 1
		for end < len(faulty) && faulty[end].w.pk == k {
			end++
		}
		group := faulty[:end]
		faulty = faulty[end:]
		var src []complex128
		if k >= e.rk {
			gates += int64(e.opStart[k] - e.opStart[e.rk])
			ops += int64(k - e.rk)
			amps += e.advance(k)
			src = e.register(e.roll, k).Amp
		} else {
			if prefix == nil {
				prefix = getScratch(n)
				prefix.s.Reset()
			}
			gates += int64(e.opStart[k] - e.opStart[pk])
			ops += int64(k - pk)
			amps += e.run(prefix.s, pk, k)
			pk = k
			src = e.register(prefix.s, k).Amp
		}
		for w0 := 0; w0 < len(group); w0 += workers {
			wave := group[w0:min(w0+workers, len(group))]
			if len(wave) == 1 {
				scs[0].src = src
				e.finishTrajectory(scs[0], wave[0], nm)
				continue
			}
			var wg sync.WaitGroup
			for w, p := range wave {
				scs[w].src = src
				wg.Add(1)
				go func(w int, p *trajPlan) {
					defer wg.Done()
					e.finishTrajectory(scs[w], p, nm)
				}(w, p)
			}
			wg.Wait()
		}
		for _, p := range group {
			gates += p.gates
			amps += p.amps
		}
	}
	return gates, amps, ops
}

// finishTrajectory carries the trajectory's frame from its checkpoint to
// the end of the program in sc (see walk), then samples its shots through
// the final X mask and applies readout flips, all with the trajectory's
// private RNG substream.
func (e *Executor) finishTrajectory(sc *replayScratch, p *trajPlan, nm *NoiseModel) {
	p.gates = int64(e.opStart[len(e.prog.ops)] - e.opStart[p.w.pk])
	p.amps = e.walk(&p.w, p.faults, sc)
	p.gates += p.w.corrGates
	sampleFrame(e.register(sc.s, len(e.prog.ops)).Amp, sc.cdfBuf(), p.w.x, p.rng, p.out)
	e.deposit(p.out, p.w.cbits)
	flipReadoutAll(p.out, nm, p.rng)
}

// sampleFrame fills out with draws from the state X^x·|a⟩, building its
// CDF in cdf by reading a[i^x] for basis index i: the probabilities, in
// the order, that applying the X gates would have produced, and draws
// from it as sampleCDFInto does. amp is a, or when it is half as long as
// cdf the low half of a register that flipping every bit leaves unchanged.
// Then, with h = len(amp) and xl = x folded to the low half (x^(2h−1) when
// x has the top bit), index i < h reads amp[i^xl] and index h+i reads its
// mirror amp[i^xl^(h−1)].
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
	sampleCDFInto(cdf, rng, out)
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

// flipReadoutAll applies independent per-qubit readout bit-flips to the
// samples of one trajectory. A qubit's flips over the shots are a Bernoulli
// process of its rate e, so rather than a draw per qubit and shot it draws
// the gap to the qubit's next flipped shot: ⌊E/λ⌋ with E exponential and
// λ = −ln(1−e), geometric with P(gap ≥ m) = (1−e)^m.
func flipReadoutAll(samples []uint64, nm *NoiseModel, rng *rand.Rand) {
	for q, e := range nm.Readout {
		if e <= 0 {
			continue
		}
		var mean float64 // 1/λ; 0 flips every shot
		if e < 1 {
			mean = -1 / math.Log1p(-e)
		}
		bit := uint64(1) << uint(q)
		for i := 0; ; i++ {
			gap := rng.ExpFloat64() * mean
			if gap >= float64(len(samples)-i) {
				break
			}
			i += int(gap)
			samples[i] ^= bit
		}
	}
}
