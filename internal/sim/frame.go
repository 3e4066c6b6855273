package sim

import (
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/circuit"
)

// Pauli-frame trajectory replay (Knill, Nature 434, 2005). A noisy
// trajectory is the ideal circuit with Pauli faults spliced in after some
// of its gates. Rather than simulate the faults as gates, the executor
// carries them as a frame P = X^x·Z^z (up to a global phase) that sits
// between the circuit and the state it simulates: the trajectory's state is
// always P·|φ⟩, with |φ⟩ the walker's state. Pushing a gate G through the
// frame changes it as follows:
//
//   - a fused 1Q op M runs as P·M·P, exactly M with its rows and columns
//     swapped (X) and its off-diagonal entries negated (Z). When a fault
//     lands between two of the op's gates, the matrix is rebuilt from those
//     gates, each conjugated by the frame it meets;
//   - CNOT runs as is and updates the frame: X on the control spreads to the
//     target, Z on the target to the control;
//   - a diagonal gate D runs as is, and the frame's X bits on its qubits
//     call for the diagonal correction (P·D·P)·D†. All diagonal ops commute,
//     so corrections wait until the end of their stretch of consecutive
//     diagonal ops and merge there into terms, applied in one pass when
//     they share one factor (correct);
//   - faults only update the frame. A fault on a qubit without a slot flips
//     its classical bit, since that qubit is in a basis state.
//
// Only the ops the frame changes differ from the ideal program, so a
// trajectory restarts from the ideal state at its first changed op (a
// checkpoint) and samples through its final X mask.

// walker carries one trajectory's Pauli frame through the executor's
// program. x and z are bit masks over slots; cbits holds the bits faults
// flipped on qubits without a slot, at the physical qubits they end on.
type walker struct {
	x, z, cbits uint64
	k           int   // the next op
	fi          int   // the next fault of the sorted plan
	pk          int   // the ops [0, pk) the trajectory's checkpoint holds
	corrGates   int64 // gates whose corrections the walk applied
}

// plan sorts p's faults into program order and walks its frame, applying
// nothing, up to the first segment (see segment) where the trajectory
// departs from the ideal program. It leaves p.w at that segment, with pk
// the ops its checkpoint must hold: the segment's start, or for a diagonal
// stretch its end, since only the stretch's corrections differ — which is
// len(ops) when the stretch closes the program, with the walk still to
// apply them. Only a trajectory that never departs leaves p.w at
// len(ops), walked to the end and holding its final frame. corr is
// correction scratch, returned for reuse.
func (e *Executor) plan(p *trajPlan, corr []diagTerm) []diagTerm {
	sortFaults(p.faults, e.sites)
	n := len(e.prog.ops)
	w := walker{k: n, pk: n}
	if len(p.faults) > 0 {
		w.k = int(e.sites[p.faults[0].gate].op)
	}
	sc := replayScratch{corr: corr}
	for w.k < n {
		from := w
		if changed, _ := e.segment(&w, p.faults, nil, &sc); changed {
			from.pk = from.k
			if e.prog.ops[from.k].kind == opDiag {
				from.pk = w.k
			}
			p.w = from
			return sc.corr
		}
	}
	w.trailing(e, p.faults)
	p.w = w
	return sc.corr
}

// replayScratch is one replay worker's scratch: the state a trajectory
// evolves, a CDF over it (cdfBuf), the correction terms and the count
// table and factors of a one-pass correction (correct). src, when set, is
// the trajectory's checkpoint, not yet copied into s. The buffers beside s
// are made on first use, so scratch that only holds an ideal run carries
// none.
type replayScratch struct {
	s    *State
	src  []complex128
	cdf  []float64
	corr []diagTerm
	cnt  []uint8
	fac  *[256]complex128
}

// cdfBuf returns a CDF buffer as long as sc.s.
func (sc *replayScratch) cdfBuf() []float64 {
	if sc.cdf == nil {
		sc.cdf = make([]float64, len(sc.s.Amp))
	}
	return sc.cdf
}

// walk carries w from its op to the end of the program, applying what the
// trajectory runs to sc.s, a register of every slot that holds the ideal
// ops [0, w.pk) — or sc.src holds them, on the register of op w.pk (see
// register) — and returns the amplitudes it swept. When w.pk closes the
// walk's first diagonal stretch, that stretch copies the checkpoint and
// corrects it in one pass.
func (e *Executor) walk(w *walker, faults []fault, sc *replayScratch) int64 {
	var amps int64
	if sc.src != nil && e.prog.ops[w.k].kind != opDiag {
		amps += int64(copy(e.register(sc.s, w.k).Amp, sc.src))
		sc.src = nil
	}
	for w.k < len(e.prog.ops) {
		r := e.register(sc.s, w.k)
		_, a := e.segment(w, faults, &r, sc)
		amps += a
	}
	w.trailing(e, faults)
	return amps
}

// segment carries w over the next segment of the program — a 1Q op, a
// CNOT, or a stretch of consecutive diagonal ops — consuming the faults
// placed in it, and reports whether the trajectory runs something other
// than the ideal ops there. With s non-nil it applies what the trajectory
// runs to s, the register the segment runs on, skipping ideal ops that s
// (or sc.src) already holds, and returns the amplitudes it swept; a 1Q op
// followed by a 1Q op on another slot of the register then runs with it
// as one pass (apply1QPair), and w moves past both.
func (e *Executor) segment(w *walker, faults []fault, s *State, sc *replayScratch) (bool, int64) {
	ops := e.prog.ops
	if op := &ops[w.k]; op.kind != opDiag {
		changed, from := false, w.k
		switch op.kind {
		case op1Q, op1QTop:
			m := e.frame1Q(w, faults)
			changed = m != op.m
			switch {
			case s == nil:
			case op.kind == op1QTop:
				s.apply1QTop(m)
			case e.prog.pairs(w.k, e.stop(w.k)):
				w.k++
				s.apply1QPair(op.q0, m, ops[w.k].q0, e.frame1Q(w, faults))
			default:
				s.Apply1Q(op.q0, m)
			}
		case opCNOT:
			w.swapFaults(e, faults)
			if s != nil {
				s.ApplyCNOT(op.q0, op.q1)
			}
			w.cnot(uint(op.q0), uint(op.q1))
			w.gateFaults(e, faults, e.lastGate(w.k))
		}
		w.k++
		if s == nil {
			return changed, 0
		}
		return changed, int64(w.k-from) * int64(len(s.Amp))
	}
	sc.corr = sc.corr[:0]
	var amps int64
	half := e.half && w.k >= e.hk
	for ; w.k < len(ops) && ops[w.k].kind == opDiag; w.k++ {
		w.swapFaults(e, faults)
		if s != nil && w.k >= w.pk {
			s.applyDiag(ops[w.k].global, ops[w.k].terms)
			amps += int64(len(s.Amp))
		}
		if w.x == 0 && !w.faultInside(e, faults) {
			continue
		}
		for _, gi := range e.srcGates(w.k) {
			var added bool
			if sc.corr, added = addCorrection(sc.corr, e.circ.Gates[gi], e.sites[gi].slot, w.x); added {
				w.corrGates++
			}
			w.gateFaults(e, faults, int(gi))
		}
	}
	changed := len(sc.corr) > 0
	if s != nil && (changed || sc.src != nil) {
		if half {
			e.foldTerms(sc.corr)
		}
		src := s.Amp
		if sc.src != nil {
			src, sc.src = sc.src, nil
		}
		sc.correct(s.Amp, src)
		amps += int64(len(s.Amp))
	}
	return changed, amps
}

// frame1Q carries w over the faults of the swaps before op w.k, a 1Q op,
// and over the op itself, and returns the matrix the trajectory runs in
// its place: the op conjugated by the frame, or, when a fault lands
// between two of its gates, the product of its gates, each conjugated by
// the frame it meets.
func (e *Executor) frame1Q(w *walker, faults []fault) [2][2]complex128 {
	w.swapFaults(e, faults)
	q := uint(e.prog.ops[w.k].q0)
	last := e.lastGate(w.k)
	if w.faultInside(e, faults) && faults[w.fi].gate != last {
		m := [2][2]complex128{{1, 0}, {0, 1}}
		for _, gi := range e.srcGates(w.k) {
			m = matMul(conj1Q(mat1Q(e.circ.Gates[gi]), w.x>>q&1 != 0, w.z>>q&1 != 0), m)
			w.gateFaults(e, faults, int(gi))
		}
		return m
	}
	m := conj1Q(e.prog.ops[w.k].m, w.x>>q&1 != 0, w.z>>q&1 != 0)
	w.gateFaults(e, faults, last)
	return m
}

// lastGate returns the last circuit gate op k covers.
func (e *Executor) lastGate(k int) int { return int(e.opGates[e.opStart[k+1]-1]) }

// correct sets dst to the corrections sc.corr applied to src (dst itself,
// or a checkpoint of the same length). When every term multiplies by one
// factor f where its bits have odd parity (a CPhase stretch of one angle),
// the product at basis index x is f^c(x), with c(x) the number of terms x
// cuts, and one pass writes dst[x] = src[x]·f^c(x) (countedCorrection).
// Any other set of terms runs per term (applyDiag) after the copy.
func (sc *replayScratch) correct(dst, src []complex128) {
	f, ok := uniformParity(sc.corr)
	if !ok {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		(&State{Amp: dst}).applyDiag(1, sc.corr)
		return
	}
	if sc.fac == nil {
		sc.fac = new([256]complex128)
	}
	sc.fac[0] = 1
	for c := 1; c <= len(sc.corr); c++ {
		sc.fac[c] = sc.fac[c-1] * f
	}
	if cap(sc.cnt) < len(dst) {
		sc.cnt = make([]uint8, len(dst))
	}
	countedCorrection(dst, src, sc.corr, sc.cnt[:len(dst)], sc.fac)
}

// uniformParity returns f when every term has fac = (1, f) and selects by
// the parity of its mask (a one-bit term selects by that bit either way),
// and there are at most 255, so that a count fits a byte.
func uniformParity(terms []diagTerm) (complex128, bool) {
	if len(terms) == 0 || len(terms) > math.MaxUint8 {
		return 0, false
	}
	f := terms[0].fac[1]
	for _, t := range terms {
		if t.fac[0] != 1 || t.fac[1] != f || !t.parity && bits.OnesCount64(t.mask) != 1 {
			return 0, false
		}
	}
	return f, true
}

// cnot pushes the frame through a CNOT with control c and target t: X on
// the control spreads to the target, Z on the target to the control.
func (w *walker) cnot(c, t uint) {
	w.x ^= (w.x >> c & 1) << t
	w.z ^= (w.z >> t & 1) << c
}

// swapFaults applies the faults of the swaps placed before op w.k.
func (w *walker) swapFaults(e *Executor, faults []fault) {
	for ; w.fi < len(faults); w.fi++ {
		st := &e.sites[faults[w.fi].gate]
		if int(st.op) != w.k || !st.swap {
			return
		}
		w.inject(st, faults[w.fi])
	}
}

// faultInside reports whether the next fault lies inside op w.k; call it
// after swapFaults.
func (w *walker) faultInside(e *Executor, faults []fault) bool {
	return w.fi < len(faults) && int(e.sites[faults[w.fi].gate].op) == w.k
}

// gateFaults applies the faults drawn after circuit gate gi, which come
// next in the sorted plan when gi is the op's next gate that has any.
func (w *walker) gateFaults(e *Executor, faults []fault, gi int) {
	for ; w.fi < len(faults) && faults[w.fi].gate == gi; w.fi++ {
		w.inject(&e.sites[gi], faults[w.fi])
	}
}

// trailing applies the faults of the swaps after the last op.
func (w *walker) trailing(e *Executor, faults []fault) {
	for ; w.fi < len(faults); w.fi++ {
		w.inject(&e.sites[faults[w.fi].gate], faults[w.fi])
	}
}

// inject multiplies fault f, placed at site st, into the frame.
func (w *walker) inject(st *faultSite, f fault) {
	w.pauli(st, 0, f.d0)
	if f.q1 >= 0 {
		w.pauli(st, 1, f.d1)
	}
}

// pauli multiplies Pauli digit d (0=I, 1=X, 2=Y, 3=Z) on the site's i-th
// qubit into the frame. On a qubit without a slot, a basis state, Z is a
// global phase and X and Y flip its bit.
func (w *walker) pauli(st *faultSite, i, d int) {
	xb, zb := d == 1 || d == 2, d >= 2
	if s := st.slot[i]; s >= 0 {
		if xb {
			w.x ^= 1 << uint(s)
		}
		if zb {
			w.z ^= 1 << uint(s)
		}
	} else if xb {
		w.cbits ^= 1 << uint(st.dest[i])
	}
}

// sortFaults orders a plan's faults as a walker meets them: by op, the
// faults of swaps placed before an op ahead of those inside it, then by
// circuit gate, keeping a gate's faults in draw order. Insertion sort: a
// plan holds a handful of faults.
func sortFaults(faults []fault, sites []faultSite) {
	key := func(f fault) int {
		st := &sites[f.gate]
		if st.swap {
			return 2 * int(st.op)
		}
		return 2*int(st.op) + 1
	}
	for i := 1; i < len(faults); i++ {
		f, kf := faults[i], key(faults[i])
		j := i
		for ; j > 0; j-- {
			if kg := key(faults[j-1]); kg < kf || kg == kf && faults[j-1].gate <= f.gate {
				break
			}
			faults[j] = faults[j-1]
		}
		faults[j] = f
	}
}

// conj1Q returns P·m·P for P = X^x·Z^z on m's qubit: X swaps its rows and
// its columns, Z negates its off-diagonal entries. Both are exact.
func conj1Q(m [2][2]complex128, x, z bool) [2][2]complex128 {
	if x {
		m = [2][2]complex128{{m[1][1], m[1][0]}, {m[0][1], m[0][0]}}
	}
	if z {
		m[0][1], m[1][0] = -m[0][1], -m[1][0]
	}
	return m
}

// addCorrection merges into corr the diagonal correction (P·D·P)·D† that a
// frame with X bits x makes of diagonal gate g, whose qubits hold the given
// slots, up to a global phase, and reports whether g needs one. Z bits
// commute with D. Written as a term with fac[0] = 1:
//
//   - RZ and U1 with diagonal (d0, d1) and X on their qubit: (d0/d1)² on
//     bit 1 (Z needs none: X·Z·X = −Z);
//   - CPhase(θ) with X on one of its qubits: e^{−2iθ} on odd parity;
//   - CZ with X on one qubit: Z on the other; on both: −1 on odd parity.
func addCorrection(corr []diagTerm, g circuit.Gate, slot [2]int8, x uint64) ([]diagTerm, bool) {
	s0, s1 := uint(slot[0]), uint(slot[1])
	a := x>>s0&1 != 0
	switch g.Kind {
	case circuit.RZ, circuit.U1:
		if a {
			d0, d1 := diag1Q(g)
			r := d0 / d1
			return mergeTerm(corr, diagTerm{mask: 1 << s0, fac: [2]complex128{1, r * r}}), true
		}
	case circuit.CPhase:
		if b := x>>s1&1 != 0; a != b {
			f := cmplx.Exp(complex(0, -2*g.Params[0]))
			return mergeTerm(corr, diagTerm{mask: 1<<s0 | 1<<s1, fac: [2]complex128{1, f}, parity: true}), true
		}
	case circuit.CZ:
		b := x>>s1&1 != 0
		var t diagTerm
		switch {
		case a && b:
			t = diagTerm{mask: 1<<s0 | 1<<s1, parity: true}
		case a:
			t = diagTerm{mask: 1 << s1}
		case b:
			t = diagTerm{mask: 1 << s0}
		default:
			return corr, false
		}
		t.fac = [2]complex128{1, -1}
		return mergeTerm(corr, t), true
	}
	return corr, false
}
