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

// Fault-sparse noisy trajectories. At realistic error rates most
// trajectories draw no Pauli fault at all, and the ones that do draw their
// first fault well into the circuit. The old SampleNoisy nevertheless
// re-simulated every trajectory from |0…0⟩. The Executor below draws every
// trajectory's fault sites up front (the state-vector evolution consumes no
// randomness, so plan-then-replay draws the exact same RNG stream as
// interleaved draw-and-apply):
//
//   - fault-free trajectories sample from one shared ideal final state and
//     its prebuilt CDF — zero gate applications;
//   - faulty trajectories replay only from a checkpoint at their first
//     fault site: trajectories are sorted by first-fault gate and a single
//     rolling prefix state advances monotonically through the circuit, so
//     each prefix gate is applied once per SampleNoisy call no matter how
//     many trajectories branch off it;
//   - each trajectory owns a private RNG substream derived from one draw of
//     the caller's generator (splitmix64 over the trajectory index), so
//     trajectories fan out across cores with results that are byte-identical
//     regardless of GOMAXPROCS.
//
// The substream derivation intentionally changes the RNG stream relative to
// the pre-fusion SampleNoisy (which threaded one shared *rand.Rand through
// every trajectory sequentially); BENCH_baseline.json was refreshed in the
// same change. RunNoisy still consumes the caller's stream exactly as
// before and stays draw-for-draw compatible.

// fault is one planned Pauli injection: after applying circuit gate index
// gate, apply Pauli digit d0 to q0 and (for two-qubit faults, q1 ≥ 0) d1 to
// q1. Digits are base-4: 0=I, 1=X, 2=Y, 3=Z.
type fault struct {
	gate   int
	q0, q1 int
	d0, d1 int
}

// drawFaults samples the fault plan of one trajectory, consuming rng in the
// exact per-gate order of the original interleaved implementation (per
// CNOT-equivalent for two-qubit gates; see NoiseModel).
func drawFaults(c *circuit.Circuit, nm *NoiseModel, rng *rand.Rand, buf []fault) []fault {
	buf = buf[:0]
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

// pauliGate maps a fault digit to its gate (ok=false for identity).
func pauliGate(q, d int) (circuit.Gate, bool) {
	switch d {
	case 1:
		return circuit.NewX(q), true
	case 2:
		return circuit.NewY(q), true
	case 3:
		return circuit.NewZ(q), true
	}
	return circuit.Gate{}, false
}

// appendFault appends the fault's Pauli digits to c as plain gates.
func appendFault(c *circuit.Circuit, f fault) {
	if g, ok := pauliGate(f.q0, f.d0); ok {
		c.Append(g)
	}
	if f.q1 >= 0 {
		if g, ok := pauliGate(f.q1, f.d1); ok {
			c.Append(g)
		}
	}
}

// faultSuffixProgram fuses the tail of c that follows the plan's first
// fault site: the first-site Pauli injections, then every remaining gate
// with its planned faults interleaved as gates. Both RunNoisy and the
// executor's trajectory replay build their suffix through this one helper,
// so the two paths produce bit-identical states from the same fault plan.
func faultSuffixProgram(c *circuit.Circuit, faults []fault) *Program {
	sc := circuit.New(c.NQubits)
	sc.Gates = make([]circuit.Gate, 0, len(c.Gates)+2*len(faults))
	fi := 0
	fg := faults[0].gate
	for fi < len(faults) && faults[fi].gate == fg {
		appendFault(sc, faults[fi])
		fi++
	}
	for gi := fg + 1; gi < len(c.Gates); gi++ {
		sc.Append(c.Gates[gi])
		for fi < len(faults) && faults[fi].gate == gi {
			appendFault(sc, faults[fi])
			fi++
		}
	}
	return Fuse(sc)
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
// register before readout noise, so the RNG stream and every sample match
// full-register simulation (see DESIGN.md §8).
type Executor struct {
	circ *circuit.Circuit // the physical circuit; fault plans are drawn on it
	// start maps each physical qubit to the slot it holds before the first
	// gate (-1: none); final lists the physical qubit each slot ends on,
	// ascending.
	start, final []int
	active       *circuit.Circuit // circ on the slots, gate for gate; swaps become barriers
	prog         *Program
	ideal        *State
	idealCDF     []float64
}

// NewExecutor lays c out on its slot register, fuses it and returns an
// executor over it.
func NewExecutor(c *circuit.Circuit) *Executor {
	e := &Executor{circ: c}
	var ok bool
	if e.start, e.final, ok = slotLayout(c, false); !ok {
		e.start, e.final, _ = slotLayout(c, true)
	}
	// Swaps, Measure and Barrier gates become barriers, placeholders that
	// keep gate indices aligned: a fault's gate index addresses both
	// circuits.
	e.active = &circuit.Circuit{NQubits: len(e.final), Gates: make([]circuit.Gate, len(c.Gates))}
	at := append([]int(nil), e.start...)
	for i, g := range c.Gates {
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
			g = circuit.Gate{Kind: circuit.Barrier}
		case g.Kind == circuit.Swap:
			at[g.Q0], at[g.Q1] = at[g.Q1], at[g.Q0]
			g = circuit.Gate{Kind: circuit.Barrier}
		case g.Arity() == 2:
			g.Q0, g.Q1 = at[g.Q0], at[g.Q1]
		default:
			g.Q0 = at[g.Q0]
		}
		e.active.Gates[i] = g
	}
	e.prog, _ = compactProgram(Fuse(c), append([]int(nil), e.start...), 0, len(e.final))
	return e
}

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
		sp := Collector().StartSpan(obsv.SpanSimIdealRun)
		e.ideal = e.prog.RunOn(NewState(e.active.NQubits))
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
//
//qaoa:hotpath
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

const noSlot = "sim: a non-Pauli gate reached a qubit without a register slot"

// compactProgram maps p, a program fused on the physical circuit, onto a
// register of slots, op by op and in place. at maps each physical qubit to
// its slot (-1: none) and cbits holds the bit of every qubit without a
// slot; both describe the state before p, and at is updated in place.
// Returns p and the bits after it.
//
// Swaps only move slots and bits. The ops that reach a qubit without a
// slot are the Pauli faults of a noisy trajectory, since slotLayout gives
// a slot to every qubit a non-swap gate touches: a fused run of them flips
// the qubit's bit and multiplies the state by its ±1/±i phase, and a
// diagonal term reads the bit as a constant. Every amplitude thus goes
// through the same multiplications, by the same factors and in the same
// order, as in the full register.
func compactProgram(p *Program, at []int, cbits uint64, slots int) (*Program, uint64) {
	ops := p.ops[:0]
	slot := func(q int) int {
		if at[q] < 0 {
			panic(noSlot)
		}
		return at[q]
	}
	for _, op := range p.ops {
		switch op.kind {
		case opSwap:
			a, b := op.q0, op.q1
			at[a], at[b] = at[b], at[a]
			if (cbits>>uint(a)^cbits>>uint(b))&1 != 0 {
				cbits ^= 1<<uint(a) | 1<<uint(b)
			}
			continue
		case opCNOT:
			op.q0, op.q1 = slot(op.q0), slot(op.q1)
		case op1Q:
			if at[op.q0] >= 0 {
				op.q0 = at[op.q0]
				break
			}
			// A product of Paulis: one nonzero entry per row.
			if (op.m[0][0] == 0) == (op.m[0][1] == 0) {
				panic(noSlot)
			}
			from := int(cbits >> uint(op.q0) & 1)
			to := from
			if op.m[0][0] == 0 {
				to ^= 1
				cbits ^= 1 << uint(op.q0)
			}
			if op.m[to][from] == 1 {
				continue
			}
			op = fusedOp{kind: opDiag, global: 1, terms: []diagTerm{uniformTerm(op.m[to][from])}}
		case opDiag:
			for i, t := range op.terms {
				op.terms[i] = compactTerm(t, at, cbits)
			}
		}
		ops = append(ops, op)
	}
	p.n, p.ops = slots, ops
	return p, cbits
}

// uniformTerm is a diagonal term that multiplies every amplitude by f: with
// an empty mask it selects the same factor for every basis index.
func uniformTerm(f complex128) diagTerm { return diagTerm{fac: [2]complex128{f, f}} }

// compactTerm maps a diagonal term onto the slot register. The only terms
// that reach a qubit without a slot are fault Zs, one bit each; that bit is
// a constant from cbits, so the term multiplies every amplitude by the
// factor it selects.
func compactTerm(t diagTerm, at []int, cbits uint64) diagTerm {
	var live uint64
	for m := t.mask; m != 0; m &= m - 1 {
		s := at[bits.TrailingZeros64(m)]
		if s < 0 {
			if t.mask&(t.mask-1) != 0 {
				panic(noSlot)
			}
			return uniformTerm(termFac(&t, cbits))
		}
		live |= 1 << uint(s)
	}
	t.mask = live
	return t
}

// trajPlan is one trajectory's predrawn execution plan: its private RNG
// substream (already advanced past the fault draws), its fault sites, and
// the slice of the shared output it fills.
type trajPlan struct {
	rng    *rand.Rand
	faults []fault
	out    []uint64
}

// SampleNoisy draws shots measurement outcomes from the noisy execution of
// the executor's circuit, spread over the given number of independent
// Pauli-fault trajectories, applying readout bit-flips to every sample.
// Results are deterministic in rng's state and independent of GOMAXPROCS.
func (e *Executor) SampleNoisy(nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
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
		plans = append(plans, trajPlan{rng: trng, faults: drawFaults(e.circ, nm, trng, nil), out: out[off : off+k]})
		off += k
	}

	var idle, faulty []*trajPlan
	for i := range plans {
		if len(plans[i].faults) == 0 {
			idle = append(idle, &plans[i])
		} else {
			faulty = append(faulty, &plans[i])
		}
	}

	if len(idle) > 0 {
		cdf := e.idealCDFBuf()
		forEachPlan(idle, func(p *trajPlan) {
			sampleCDFInto(cdf, p.rng, p.out)
			e.deposit(p.out, 0)
			flipReadoutAll(p.out, nm, p.rng)
		})
	}

	var replayGates int64
	if len(faulty) > 0 {
		replayGates = e.replayFaulty(faulty, nm)
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

// replayFaulty runs the faulty trajectories in waves of GOMAXPROCS: a
// serial phase advances the rolling prefix state to each trajectory's first
// fault site (sorted order keeps the prefix monotone) and checkpoints it
// into the worker's scratch state; the parallel phase replays each suffix,
// samples and applies readout noise. Returns the number of gate
// applications spent on prefix advancement plus suffix replay.
func (e *Executor) replayFaulty(faulty []*trajPlan, nm *NoiseModel) int64 {
	sort.SliceStable(faulty, func(i, j int) bool {
		return faulty[i].faults[0].gate < faulty[j].faults[0].gate
	})
	gates := e.active.Gates
	workers := runtime.GOMAXPROCS(0)
	if workers > len(faulty) {
		workers = len(faulty)
	}
	n := e.active.NQubits
	prefix := getState(n)
	defer putState(prefix)
	prefix.Reset()
	prefixGate := -1
	at := append([]int(nil), e.start...) // the prefix's slot layout
	scratch := make([]*State, workers)
	cdfs := make([][]float64, workers)
	ats := make([][]int, workers)
	for w := range scratch {
		scratch[w] = getState(n)
		cdfs[w] = getCDF(len(prefix.Amp))
		ats[w] = make([]int, len(at))
		defer putState(scratch[w])
		defer putCDF(cdfs[w])
	}
	var replayGates int64
	for w0 := 0; w0 < len(faulty); w0 += workers {
		wave := faulty[w0:min(w0+workers, len(faulty))]
		for w, p := range wave {
			fg := p.faults[0].gate
			for gi := prefixGate + 1; gi <= fg; gi++ {
				prefix.ApplyGate(gates[gi])
				if g := e.circ.Gates[gi]; g.Kind == circuit.Swap {
					at[g.Q0], at[g.Q1] = at[g.Q1], at[g.Q0]
				}
				replayGates++
			}
			prefixGate = fg
			copy(scratch[w].Amp, prefix.Amp)
			copy(ats[w], at)
			replayGates += int64(len(gates) - 1 - fg)
		}
		if len(wave) == 1 {
			e.finishTrajectory(scratch[0], ats[0], cdfs[0], wave[0], nm)
			continue
		}
		var wg sync.WaitGroup
		for w, p := range wave {
			wg.Add(1)
			go func(w int, p *trajPlan) {
				defer wg.Done()
				e.finishTrajectory(scratch[w], ats[w], cdfs[w], p, nm)
			}(w, p)
		}
		wg.Wait()
	}
	return replayGates
}

// finishTrajectory replays the fault suffix — fused on the physical circuit,
// then mapped onto the slot layout at of the checkpointed state s — and
// samples the trajectory's shots and applies readout flips, all with the
// trajectory's private RNG substream.
func (e *Executor) finishTrajectory(s *State, at []int, cdf []float64, p *trajPlan, nm *NoiseModel) {
	prog, cbits := compactProgram(faultSuffixProgram(e.circ, p.faults), at, 0, s.N)
	prog.apply(s)
	acc := buildCDF(s.Amp, cdf)
	for k := range p.out {
		p.out[k] = uint64(searchCDF(cdf, p.rng.Float64()*acc))
	}
	e.deposit(p.out, cbits)
	flipReadoutAll(p.out, nm, p.rng)
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
