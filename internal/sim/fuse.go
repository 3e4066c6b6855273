package sim

import (
	"fmt"
	"math/bits"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/obsv"
)

// Gate fusion. QAOA circuits are dominated by long runs of mutually
// commuting diagonal gates (the CPhase cost layers, plus the RZ/U1 chains
// the IBM decomposition produces) interleaved with per-qubit 1Q gates. The
// naive executor pays one full pass over the 2^n amplitudes per gate; the
// fusion pre-pass below rewrites a circuit into a shorter Program whose ops
// each cost one pass:
//
//   - consecutive 1Q gates on the same qubit fold into a single 2×2 matrix;
//   - maximal runs of diagonal gates (Z, RZ, U1, CZ, CPhase) coalesce into
//     one diagonal op: a global factor times a product of per-term factors
//     selected by bit masks of the basis index, one term per distinct mask,
//     each applied as a pass over the half or quarter of the state it
//     changes;
//   - CNOT and Swap stay as dedicated permutation kernels.
//
// Correctness is by per-qubit order preservation: a gate may only be folded
// into an earlier op when no op in between touches any of its qubits
// (tracked via lastTouch), so the reordering only ever commutes ops on
// disjoint qubits, which trivially commute. Diagonal gates folded into the
// same run commute with each other by definition.

// opKind discriminates the fused operation types.
type opKind uint8

const (
	op1Q opKind = iota
	opCNOT
	opSwap
	opDiag
	// op1QTop is an op1Q on the top slot of an executor's half register
	// (apply1QTop); only an Executor's program holds it.
	op1QTop
)

// diagTerm is one multiplicative factor of a diagonal sweep. For a basis
// index x the term contributes fac[sel(x)], where sel is 1 when
// (x&mask)==mask (parity=false: "all bits set", the controlled-phase shape)
// or when popcount(x&mask) is odd (parity=true: the ZZ-interaction shape),
// and 0 otherwise. fac[0] is always 1, so the selection is branch-free.
type diagTerm struct {
	mask   uint64
	fac    [2]complex128
	parity bool
}

// fusedOp is one executable unit of a Program.
type fusedOp struct {
	kind   opKind
	q0, q1 int
	m      [2][2]complex128 // op1Q
	global complex128       // opDiag
	terms  []diagTerm       // opDiag
}

// Program is a fused execution plan for one circuit. Build with Fuse,
// execute with RunOn. A Program is immutable after Fuse and safe for
// concurrent RunOn calls on distinct states.
type Program struct {
	n     int // qubits the source circuit declared
	gates int // simulable (non-barrier, non-measure) gates covered
	ops   []fusedOp
	// src maps each gate of the source circuit to the index of the op that
	// covers it (-1: Measure and Barrier, which no op covers).
	src []int32
}

// NQubits returns the qubit count of the source circuit.
func (p *Program) NQubits() int { return p.n }

// Gates returns the number of simulable gates the program covers.
func (p *Program) Gates() int { return p.gates }

// Ops returns the number of fused operations (≤ Gates; the fusion win is
// the ratio).
func (p *Program) Ops() int { return len(p.ops) }

// mat1Q returns the 2×2 unitary of a one-qubit gate.
func mat1Q(g circuit.Gate) [2][2]complex128 {
	switch g.Kind {
	case circuit.Z, circuit.RZ, circuit.U1:
		d0, d1 := diag1Q(g)
		return [2][2]complex128{{d0, 0}, {0, d1}}
	case circuit.H:
		return matH
	case circuit.X:
		return matX
	case circuit.Y:
		return matY
	case circuit.RX:
		return MatRX(g.Params[0])
	case circuit.RY:
		return MatRY(g.Params[0])
	case circuit.U2:
		return MatU2(g.Params[0], g.Params[1])
	case circuit.U3:
		return MatU3(g.Params[0], g.Params[1], g.Params[2])
	}
	panic("sim: mat1Q on " + g.Kind.String())
}

// matMul returns a·b (b applied first).
func matMul(a, b [2][2]complex128) [2][2]complex128 {
	return [2][2]complex128{
		{a[0][0]*b[0][0] + a[0][1]*b[1][0], a[0][0]*b[0][1] + a[0][1]*b[1][1]},
		{a[1][0]*b[0][0] + a[1][1]*b[1][0], a[1][0]*b[0][1] + a[1][1]*b[1][1]},
	}
}

// diag1Q returns the diagonal (d0, d1) of a diagonal one-qubit gate.
func diag1Q(g circuit.Gate) (complex128, complex128) {
	switch g.Kind {
	case circuit.Z:
		return 1, -1
	case circuit.RZ:
		return cmplx.Exp(complex(0, -g.Params[0]/2)), cmplx.Exp(complex(0, g.Params[0]/2))
	case circuit.U1:
		return 1, cmplx.Exp(complex(0, g.Params[0]))
	}
	panic("sim: diag1Q on " + g.Kind.String())
}

// fuser carries the bookkeeping of one Fuse pass.
type fuser struct {
	prog *Program
	// lastTouch[q] is the index in prog.ops of the last op touching qubit q
	// (-1: untouched). A gate may fold into op i only when lastTouch[q] ≤ i
	// for all its qubits.
	lastTouch []int
	// open1Q[q] is the index of an op1Q on q that is still the last op on q
	// (-1 or stale otherwise): the fold target for further 1Q gates.
	open1Q []int
	// openDiag is the index of the trailing diagonal run (-1: none open).
	openDiag int
}

// Fuse compiles c into a fused Program. Measure and Barrier gates are
// dropped: they are no-ops at the state level.
func Fuse(c *circuit.Circuit) *Program {
	f := &fuser{
		prog:      &Program{n: c.NQubits, src: make([]int32, len(c.Gates))},
		lastTouch: make([]int, c.NQubits),
		open1Q:    make([]int, c.NQubits),
		openDiag:  -1,
	}
	for q := range f.lastTouch {
		f.lastTouch[q], f.open1Q[q] = -1, -1
	}
	for gi, g := range c.Gates {
		switch g.Kind {
		case circuit.Measure, circuit.Barrier:
			f.prog.src[gi] = -1
			continue
		}
		f.prog.gates++
		var op int
		switch g.Kind {
		case circuit.Z, circuit.RZ, circuit.U1:
			d0, d1 := diag1Q(g)
			if i := f.open1Q[g.Q0]; i >= 0 && i == f.lastTouch[g.Q0] {
				// Scale the rows of the open matrix: diag(d0,d1)·M.
				m := &f.prog.ops[i].m
				m[0][0] *= d0
				m[0][1] *= d0
				m[1][0] *= d1
				m[1][1] *= d1
				op = i
			} else {
				// d0·(term d1/d0 on bit q). For Z and U1 d0 is exactly 1.
				op = f.foldDiag(d0, diagTerm{mask: 1 << uint(g.Q0), fac: [2]complex128{1, d1 / d0}}, g.Q0)
			}
		case circuit.CZ:
			op = f.foldDiag(1, diagTerm{mask: 1<<uint(g.Q0) | 1<<uint(g.Q1), fac: [2]complex128{1, -1}}, g.Q0, g.Q1)
		case circuit.CPhase:
			// exp(-iθ/2 Z⊗Z): e^{-iθ/2} on agreeing bits, e^{+iθ/2} on
			// disagreeing ones = global e^{-iθ/2} times e^{+iθ} on odd parity.
			theta := g.Params[0]
			op = f.foldDiag(cmplx.Exp(complex(0, -theta/2)),
				diagTerm{mask: 1<<uint(g.Q0) | 1<<uint(g.Q1), fac: [2]complex128{1, cmplx.Exp(complex(0, theta))}, parity: true},
				g.Q0, g.Q1)
		case circuit.CNOT:
			op = f.appendOp(fusedOp{kind: opCNOT, q0: g.Q0, q1: g.Q1}, g.Q0, g.Q1)
		case circuit.Swap:
			op = f.appendOp(fusedOp{kind: opSwap, q0: g.Q0, q1: g.Q1}, g.Q0, g.Q1)
		default:
			if g.Arity() != 1 {
				panic("sim: cannot fuse " + g.Kind.String())
			}
			m := mat1Q(g)
			if i := f.open1Q[g.Q0]; i >= 0 && i == f.lastTouch[g.Q0] {
				f.prog.ops[i].m = matMul(m, f.prog.ops[i].m)
				op = i
			} else {
				op = f.appendOp(fusedOp{kind: op1Q, q0: g.Q0, m: m}, g.Q0)
				f.open1Q[g.Q0] = op
			}
		}
		f.prog.src[gi] = int32(op)
	}
	// Finalize: bake each diagonal run's global phase into its first term so
	// the sweep spends exactly one complex multiply per term per amplitude.
	for i := range f.prog.ops {
		op := &f.prog.ops[i]
		if op.kind == opDiag && len(op.terms) > 0 && op.global != 1 {
			op.terms[0].fac[0] *= op.global
			op.terms[0].fac[1] *= op.global
			op.global = 1
		}
	}
	return f.prog
}

// appendOp adds a fresh op touching the given qubits and returns its index.
func (f *fuser) appendOp(op fusedOp, qs ...int) int {
	f.prog.ops = append(f.prog.ops, op)
	i := len(f.prog.ops) - 1
	for _, q := range qs {
		f.lastTouch[q] = i
		f.open1Q[q] = -1
	}
	return i
}

// foldDiag merges one diagonal gate (global factor + term) into the open
// diagonal run, reusing it when no later op touches the gate's qubits and
// opening a fresh run otherwise. Returns the run's op index.
func (f *fuser) foldDiag(global complex128, t diagTerm, qs ...int) int {
	d := f.openDiag
	for _, q := range qs {
		if f.lastTouch[q] > d {
			d = -1
			break
		}
	}
	if d < 0 {
		d = f.appendOp(fusedOp{kind: opDiag, global: 1})
		f.openDiag = d
	}
	op := &f.prog.ops[d]
	op.global *= global
	op.terms = mergeTerm(op.terms, t)
	for _, q := range qs {
		f.lastTouch[q] = d
		f.open1Q[q] = -1
	}
	return d
}

// mergeTerm multiplies t into the term of terms with the same mask and
// shape, or appends it when there is none.
func mergeTerm(terms []diagTerm, t diagTerm) []diagTerm {
	for i := range terms {
		if terms[i].mask == t.mask && terms[i].parity == t.parity {
			terms[i].fac[1] *= t.fac[1]
			return terms
		}
	}
	return append(terms, t)
}

// applyDiag multiplies every amplitude by the run's phase: the global
// factor (1 after Fuse's finalize pass whenever terms exist) times each
// term's mask-selected factor. Every term has one or two mask bits: Fuse
// and addCorrection build terms only from one- and two-qubit gates, and
// compactProgram maps distinct qubits to distinct slots.
func (s *State) applyDiag(global complex128, terms []diagTerm) {
	if len(terms) == 0 {
		if global == 1 {
			return
		}
		for i := range s.Amp {
			s.Amp[i] *= global
		}
		return
	}
	for t := range terms {
		tm := &terms[t]
		f0, f1 := tm.fac[0], tm.fac[1]
		if f0 == 1 && f1 == 1 {
			continue // merged to identity (e.g. CZ·CZ)
		}
		if bits.OnesCount64(tm.mask) == 1 {
			s.applyTerm1(int(tm.mask), f0, f1)
		} else {
			s.applyTerm2(tm.mask, tm.parity, f0, f1)
		}
	}
}

// countedCorrection sets dst[x] = src[x]·fac[c(x)] in one pass, with c(x)
// the number of terms whose mask bits x holds an odd number of (each term
// has one or two, and there are at most 255). dst and src have the same
// length and may be the same slice. The pass fills cnt[x] = c(x) as it
// goes: x is the lower entry r = x − h plus its highest bit h, and setting
// bit h adds every term on h (r holds none of their bits above h), less
// twice those whose other bit r holds.
func countedCorrection(dst, src []complex128, terms []diagTerm, cnt []uint8, fac *[256]complex128) {
	var deg [MaxQubits]uint8
	var nbr [MaxQubits]uint64
	for _, t := range terms {
		for m := t.mask; m != 0; m &= m - 1 {
			deg[bits.TrailingZeros64(m)]++
		}
		b := bits.Len64(t.mask) - 1
		nbr[b] |= t.mask &^ (1 << uint(b))
	}
	cnt[0] = 0
	dst[0] = src[0] * fac[0]
	for b := 0; 1<<uint(b) < len(dst); b++ {
		h := 1 << uint(b)
		d, nb := deg[b], nbr[b]
		lo := cnt[:h]
		hi, out, in := cnt[h : h<<1][:len(lo)], dst[h : h<<1][:len(lo)], src[h : h<<1][:len(lo)]
		for r, c := range lo {
			// uint8 arithmetic wraps, and the count it lands on is exact.
			c += d - 2*uint8(bits.OnesCount64(nb&uint64(r)))
			hi[r] = c
			out[r] = in[r] * fac[c]
		}
	}
}

// applyTerm1 applies a single-bit diagonal term: fac[0] on the bit-clear
// half, fac[1] on the bit-set half.
func (s *State) applyTerm1(b int, f0, f1 complex128) {
	n := len(s.Amp) >> 1
	bm := b - 1
	if f0 == 1 {
		for k := 0; k < n; k++ {
			s.Amp[(k&^bm)<<1|k&bm|b] *= f1
		}
		return
	}
	for k := 0; k < n; k++ {
		i := (k&^bm)<<1 | k&bm
		s.Amp[i] *= f0
		s.Amp[i|b] *= f1
	}
}

// applyTerm2 applies a two-bit diagonal term by quarter-state subsets:
// parity terms put fac[1] on the two mixed-bit quarters, subset terms on
// the both-set quarter.
func (s *State) applyTerm2(mask uint64, parity bool, f0, f1 complex128) {
	n := len(s.Amp) >> 2
	lo := int(mask & -mask)
	hi := int(mask) &^ lo
	both := int(mask)
	switch {
	case f0 == 1 && parity:
		for k := 0; k < n; k++ {
			i := expand2(k, lo, hi)
			s.Amp[i|lo] *= f1
			s.Amp[i|hi] *= f1
		}
	case f0 == 1:
		for k := 0; k < n; k++ {
			s.Amp[expand2(k, lo, hi)|both] *= f1
		}
	case parity:
		for k := 0; k < n; k++ {
			i := expand2(k, lo, hi)
			s.Amp[i] *= f0
			s.Amp[i|lo] *= f1
			s.Amp[i|hi] *= f1
			s.Amp[i|both] *= f0
		}
	default:
		for k := 0; k < n; k++ {
			i := expand2(k, lo, hi)
			s.Amp[i] *= f0
			s.Amp[i|lo] *= f0
			s.Amp[i|hi] *= f0
			s.Amp[i|both] *= f1
		}
	}
}

// apply executes ops [from, to) of the program on s without touching the
// counters — the building block shared by RunOn and the executor's ideal
// run. Two consecutive op1Q ops on distinct qubits run as one pass.
func (p *Program) apply(s *State, from, to int) {
	for i := from; i < to; i++ {
		op := &p.ops[i]
		switch op.kind {
		case op1Q:
			if p.pairs(i, to) {
				i++
				s.apply1QPair(op.q0, op.m, p.ops[i].q0, p.ops[i].m)
			} else {
				s.Apply1Q(op.q0, op.m)
			}
		case op1QTop:
			s.apply1QTop(op.m)
		case opCNOT:
			s.ApplyCNOT(op.q0, op.q1)
		case opSwap:
			s.ApplySwap(op.q0, op.q1)
		case opDiag:
			s.applyDiag(op.global, op.terms)
		}
	}
}

// pairs reports whether op i and op i+1 < to are op1Q ops on distinct
// qubits, which apply1QPair runs as one pass.
func (p *Program) pairs(i, to int) bool {
	return i+1 < to && p.ops[i].kind == op1Q && p.ops[i+1].kind == op1Q && p.ops[i+1].q0 != p.ops[i].q0
}

// RunOn executes the program on s and returns s for chaining. Like
// State.Run it batches the simulator counters once per call; sim/amp_ops
// counts ops × state length (see SetCollector).
func (p *Program) RunOn(s *State) *State {
	if p.n > s.N {
		panic(fmt.Sprintf("sim: program needs %d qubits, state has %d", p.n, s.N))
	}
	p.apply(s, 0, len(p.ops))
	if col := Collector(); col.Enabled() {
		col.Inc(obsv.CntSimRuns)
		col.Add(obsv.CntSimGates, int64(p.gates))
		col.Add(obsv.CntSimFusedOps, int64(len(p.ops)))
		col.Add(obsv.CntSimAmpOps, int64(len(p.ops))*int64(len(s.Amp)))
	}
	return s
}
