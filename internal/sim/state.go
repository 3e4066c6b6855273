// Package sim implements a state-vector quantum-circuit simulator with a
// stochastic Pauli noise model. It provides the "ideal execution" and
// "noisy hardware execution" oracles used to compute the paper's
// Approximation Ratio Gap (ARG) metric, and is exact (up to float rounding)
// for the gate set of package circuit.
//
// Qubit q corresponds to bit q (1<<q) of a basis-state index, so basis state
// |b_{n-1} … b_1 b_0⟩ has index Σ b_q·2^q.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/circuit"
)

// State is an n-qubit state vector of 2^n complex amplitudes.
type State struct {
	N   int
	Amp []complex128
}

// MaxQubits bounds the register size (2^24 amplitudes ≈ 256 MiB).
const MaxQubits = 24

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) *State {
	if n < 0 || n > MaxQubits {
		panic(fmt.Sprintf("sim: qubit count %d outside [0,%d]", n, MaxQubits))
	}
	amp := make([]complex128, 1<<uint(n))
	amp[0] = 1
	return &State{N: n, Amp: amp}
}

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	amp := make([]complex128, len(s.Amp))
	copy(amp, s.Amp)
	return &State{N: s.N, Amp: amp}
}

// Reset returns s to |0…0⟩.
func (s *State) Reset() {
	for i := range s.Amp {
		s.Amp[i] = 0
	}
	s.Amp[0] = 1
}

// Norm returns the 2-norm of the state (1 for any valid state).
func (s *State) Norm() float64 {
	var sum float64
	for _, a := range s.Amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// Probability returns |⟨x|ψ⟩|² for basis state x.
func (s *State) Probability(x uint64) float64 {
	a := s.Amp[x]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Apply1Q applies the 2×2 unitary m to qubit q. It dispatches on the
// matrix structure: the compiled gate set is dominated by real matrices
// (H, X, RY) and real-diagonal/imaginary-off-diagonal ones (RX), whose
// scalar kernels cost half the flops of a generic complex 2×2.
func (s *State) Apply1Q(q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	switch shapeOf(m) {
	case shapeReal:
		s.apply1QReal(bit, realOf(m))
	case shapeCross:
		s.apply1QCross(bit, crossOf(m))
	default:
		s.apply1QGeneral(bit, m)
	}
}

// matShape names the kernel that applies a 1Q matrix.
type matShape uint8

const (
	shapeGeneral matShape = iota
	shapeReal             // every entry real (H, X, RY)
	shapeCross            // real diagonal, imaginary off-diagonal (RX, Y)
)

func shapeOf(m [2][2]complex128) matShape {
	switch {
	case imag(m[0][0]) == 0 && imag(m[0][1]) == 0 && imag(m[1][0]) == 0 && imag(m[1][1]) == 0:
		return shapeReal
	case imag(m[0][0]) == 0 && imag(m[1][1]) == 0 && real(m[0][1]) == 0 && real(m[1][0]) == 0:
		return shapeCross
	}
	return shapeGeneral
}

// realMat is an all-real matrix: each output component is a real linear
// combination, so a pair costs 8 real multiplies instead of 16.
type realMat struct{ m00, m01, m10, m11 float64 }

func realOf(m [2][2]complex128) realMat {
	return realMat{real(m[0][0]), real(m[0][1]), real(m[1][0]), real(m[1][1])}
}

// mix returns the matrix applied to the amplitude pair (a0, a1).
func (k realMat) mix(a0, a1 complex128) (complex128, complex128) {
	return complex(k.m00*real(a0)+k.m01*real(a1), k.m00*imag(a0)+k.m01*imag(a1)),
		complex(k.m10*real(a0)+k.m11*real(a1), k.m10*imag(a0)+k.m11*imag(a1))
}

// crossMat is m = [[a, i·b], [i·c, d]] with a, b, c, d real (RX and Y have
// this shape): i·b·a1 contributes (-b·Im a1, b·Re a1), so the pair again
// costs 8 real multiplies.
type crossMat struct{ a, b, c, d float64 }

func crossOf(m [2][2]complex128) crossMat {
	return crossMat{real(m[0][0]), imag(m[0][1]), imag(m[1][0]), real(m[1][1])}
}

func (k crossMat) mix(a0, a1 complex128) (complex128, complex128) {
	return complex(k.a*real(a0)-k.b*imag(a1), k.a*imag(a0)+k.b*real(a1)),
		complex(k.d*real(a1)-k.c*imag(a0), k.d*imag(a1)+k.c*real(a0))
}

// apply1QReal is Apply1Q for an all-real matrix.
func (s *State) apply1QReal(bit int, k realMat) {
	n := len(s.Amp)
	for base := 0; base < n; base += bit << 1 {
		lo := s.Amp[base : base+bit]
		hi := s.Amp[base+bit : base+bit+bit][:len(lo)]
		for i := range lo {
			lo[i], hi[i] = k.mix(lo[i], hi[i])
		}
	}
}

// apply1QCross is the mixer's kernel, with dedicated loops for bits 0 and
// 1, whose pairs sit at stride 1 and 2.
func (s *State) apply1QCross(bit int, k crossMat) {
	amp := s.Amp
	switch bit {
	case 1:
		for i := 0; i+1 < len(amp); i += 2 {
			amp[i], amp[i+1] = k.mix(amp[i], amp[i+1])
		}
	case 2:
		for i := 0; i+3 < len(amp); i += 4 {
			amp[i], amp[i+2] = k.mix(amp[i], amp[i+2])
			amp[i+1], amp[i+3] = k.mix(amp[i+1], amp[i+3])
		}
	default:
		for base := 0; base < len(amp); base += bit << 1 {
			lo := amp[base : base+bit]
			hi := amp[base+bit : base+bit+bit][:len(lo)]
			for i := range lo {
				lo[i], hi[i] = k.mix(lo[i], hi[i])
			}
		}
	}
}

// apply1QGeneral applies a matrix of any shape with complex arithmetic. Its
// entries live in locals (a struct of four complex128 would sit in memory).
func (s *State) apply1QGeneral(bit int, m [2][2]complex128) {
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	n := len(s.Amp)
	for base := 0; base < n; base += bit << 1 {
		lo := s.Amp[base : base+bit]
		hi := s.Amp[base+bit : base+bit+bit][:len(lo)]
		for i := range lo {
			a0, a1 := lo[i], hi[i]
			lo[i] = m00*a0 + m01*a1
			hi[i] = m10*a0 + m11*a1
		}
	}
}

// apply1QPair applies m0 to qubit q0 and then m1 to qubit q1 ≠ q0 in one
// pass (radix 4). Each quad of amplitudes i, i|b0, i|b1, i|b0|b1 (b0, b1
// the two qubits' bits) is loaded once, goes through m0's kernel on its two
// b0-pairs and then m1's on its two b1-pairs, and is stored once: every
// output is the expression two Apply1Q calls compute, in their order, so
// the result is bit-identical. Matrices of two different shapes, or of
// the general shape, run as two Apply1Q passes.
func (s *State) apply1QPair(q0 int, m0 [2][2]complex128, q1 int, m1 [2][2]complex128) {
	b0, b1 := 1<<uint(q0), 1<<uint(q1)
	switch sh := shapeOf(m0); {
	case shapeOf(m1) != sh || sh == shapeGeneral:
		s.Apply1Q(q0, m0)
		s.Apply1Q(q1, m1)
	case sh == shapeReal:
		pairReal(s.Amp, b0, b1, realOf(m0), realOf(m1))
	default:
		pairCross(s.Amp, b0, b1, crossOf(m0), crossOf(m1))
	}
}

// The pair kernels visit the quads in index order: i runs over the indices
// with both bits clear, and ((i|both)+1)&^both is the next one.

func pairReal(amp []complex128, b0, b1 int, k, l realMat) {
	both := b0 | b1
	for i := 0; i < len(amp); i = ((i | both) + 1) &^ both {
		x0, x1, x2, x3 := amp[i], amp[i|b0], amp[i|b1], amp[i|both]
		x0, x1 = k.mix(x0, x1)
		x2, x3 = k.mix(x2, x3)
		x0, x2 = l.mix(x0, x2)
		x1, x3 = l.mix(x1, x3)
		amp[i], amp[i|b0], amp[i|b1], amp[i|both] = x0, x1, x2, x3
	}
}

// pairCross is the mixer's kernel (RX and its frame conjugates), with
// dedicated loops when the lower bit is bit 0 or bit 1: each block of
// 2·hi amplitudes (hi the higher bit) then holds its quads at stride 1
// (i, i+1) or stride 2 (i, i+1, i+4, i+5, …) below hi.
func pairCross(amp []complex128, b0, b1 int, k, l crossMat) {
	both := b0 | b1
	switch hi := both & (both - 1); both &^ hi {
	case 1:
		for base := 0; base < len(amp); base += hi << 1 {
			for i := base; i < base+hi; i += 2 {
				x0, x1, x2, x3 := amp[i], amp[i|b0], amp[i|b1], amp[i|both]
				x0, x1 = k.mix(x0, x1)
				x2, x3 = k.mix(x2, x3)
				x0, x2 = l.mix(x0, x2)
				x1, x3 = l.mix(x1, x3)
				amp[i], amp[i|b0], amp[i|b1], amp[i|both] = x0, x1, x2, x3
			}
		}
	case 2:
		for base := 0; base < len(amp); base += hi << 1 {
			for i := base; i < base+hi; i += 4 {
				x0, x1, x2, x3 := amp[i], amp[i|b0], amp[i|b1], amp[i|both]
				y0, y1, y2, y3 := amp[i+1], amp[(i+1)|b0], amp[(i+1)|b1], amp[(i+1)|both]
				x0, x1 = k.mix(x0, x1)
				x2, x3 = k.mix(x2, x3)
				x0, x2 = l.mix(x0, x2)
				x1, x3 = l.mix(x1, x3)
				y0, y1 = k.mix(y0, y1)
				y2, y3 = k.mix(y2, y3)
				y0, y2 = l.mix(y0, y2)
				y1, y3 = l.mix(y1, y3)
				amp[i], amp[i|b0], amp[i|b1], amp[i|both] = x0, x1, x2, x3
				amp[i+1], amp[(i+1)|b0], amp[(i+1)|b1], amp[(i+1)|both] = y0, y1, y2, y3
			}
		}
	default:
		for i := 0; i < len(amp); i = ((i | both) + 1) &^ both {
			x0, x1, x2, x3 := amp[i], amp[i|b0], amp[i|b1], amp[i|both]
			x0, x1 = k.mix(x0, x1)
			x2, x3 = k.mix(x2, x3)
			x0, x2 = l.mix(x0, x2)
			x1, x3 = l.mix(x1, x3)
			amp[i], amp[i|b0], amp[i|b1], amp[i|both] = x0, x1, x2, x3
		}
	}
}

// apply1QTop applies m to the top qubit of a register of which s holds the
// low half (top bit clear), for a register whose amplitudes are unchanged
// when every bit flips: a[x] = a[x^(2^n−1)]. The top-bit partner of a
// low-half index x is then the low-half index x^(len(s.Amp)−1), so the pass
// pairs x with len(s.Amp)−1−x and computes both outputs with Apply1Q's "lo"
// expression. m must have m00 == m11 and m01 == m10: then the full
// register's "hi" output of the mirrored pair is the same sum in another
// order, and the low half matches the full register's bit for bit.
func (s *State) apply1QTop(m [2][2]complex128) {
	h := len(s.Amp) >> 1
	lo := s.Amp[:h]
	hi := s.Amp[h : h+h][:len(lo)]
	last := len(hi) - 1
	switch {
	case imag(m[0][0]) == 0 && imag(m[0][1]) == 0 && imag(m[1][0]) == 0 && imag(m[1][1]) == 0:
		m00, m01 := real(m[0][0]), real(m[0][1])
		for k := range lo {
			j := last - k
			a0, a1 := lo[k], hi[j]
			lo[k] = complex(m00*real(a0)+m01*real(a1), m00*imag(a0)+m01*imag(a1))
			hi[j] = complex(m00*real(a1)+m01*real(a0), m00*imag(a1)+m01*imag(a0))
		}
	case imag(m[0][0]) == 0 && imag(m[1][1]) == 0 && real(m[0][1]) == 0 && real(m[1][0]) == 0:
		a, b := real(m[0][0]), imag(m[0][1])
		for k := range lo {
			j := last - k
			a0, a1 := lo[k], hi[j]
			lo[k] = complex(a*real(a0)-b*imag(a1), a*imag(a0)+b*real(a1))
			hi[j] = complex(a*real(a1)-b*imag(a0), a*imag(a1)+b*real(a0))
		}
	default:
		m00, m01 := m[0][0], m[0][1]
		for k := range lo {
			j := last - k
			a0, a1 := lo[k], hi[j]
			lo[k] = m00*a0 + m01*a1
			hi[j] = m00*a1 + m01*a0
		}
	}
}

// expand2 inserts zero bits at the two (distinct) bit positions given by
// the masks loBit < hiBit, mapping a compact index k ∈ [0, 2^{n-2}) to the
// unique basis index with both bits clear and the remaining bits of k in
// order, so a two-qubit kernel iterates exactly its touched subset instead
// of scanning all 2^n amplitudes.
func expand2(k, loBit, hiBit int) int {
	loMask, hiMask := loBit-1, hiBit-1
	i := (k&^loMask)<<1 | (k & loMask)
	return (i&^hiMask)<<1 | (i & hiMask)
}

// sortBits returns the two bit masks in increasing order.
func sortBits(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

// ApplyCNOT applies CNOT with control c, target t. Iteration is over the
// 2^{n-2} swapped pairs only (control bit set, target bit clear), so no
// amplitude is visited without being moved.
func (s *State) ApplyCNOT(c, t int) {
	cb, tb := 1<<uint(c), 1<<uint(t)
	lo, hi := sortBits(cb, tb)
	n := len(s.Amp) >> 2
	for k := 0; k < n; k++ {
		i := expand2(k, lo, hi) | cb
		j := i | tb
		s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
	}
}

// ApplySwap exchanges qubits a and b, visiting only the 2^{n-2} swapped
// pairs (bit a set, bit b clear, and the mirror image).
func (s *State) ApplySwap(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := sortBits(ab, bb)
	n := len(s.Amp) >> 2
	for k := 0; k < n; k++ {
		i := expand2(k, lo, hi) | ab
		j := (i &^ ab) | bb
		s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
	}
}

// Run executes c on s through its fused program, Fuse(c).RunOn(s), and
// returns s for chaining: the full-register entry point to the kernels the
// executor runs on its slot register.
func (s *State) Run(c *circuit.Circuit) *State {
	if c.NQubits > s.N {
		panic(fmt.Sprintf("sim: circuit needs %d qubits, state has %d", c.NQubits, s.N))
	}
	return Fuse(c).RunOn(s)
}

// Sample draws shots basis states from the measurement distribution, in
// index order (see sampleCDFInto).
func (s *State) Sample(rng *rand.Rand, shots int) []uint64 {
	cdf := make([]float64, len(s.Amp))
	buildCDF(s.Amp, cdf)
	out := make([]uint64, shots)
	sampleCDFInto(cdf, rng, out)
	return out
}

// buildCDF fills cdf (len(amp) entries) with the cumulative measurement
// distribution and returns the total mass (1 up to rounding for a
// normalized state).
func buildCDF(amp []complex128, cdf []float64) float64 {
	var acc float64
	for i, a := range amp {
		acc += real(a)*real(a) + imag(a)*imag(a)
		cdf[i] = acc
	}
	return acc
}

// sampleCDFInto fills out with draws from a prebuilt CDF. Rather than
// search the CDF once per shot, it walks it once against sorted uniform
// targets on [0, total): the running sums of len(out)+1 exponential draws,
// scaled by the total over the last sum. Each target draws the smallest
// index whose running sum exceeds it, as a search would, so out comes back
// sorted. The walk strides 8 entries while it can, so a few shots over a
// long CDF cost little more than their searches.
func sampleCDFInto(cdf []float64, rng *rand.Rand, out []uint64) {
	if len(out) == 0 {
		return
	}
	var sum float64
	for k := range out {
		sum += rng.ExpFloat64()
		out[k] = math.Float64bits(sum)
	}
	scale := cdf[len(cdf)-1] / (sum + rng.ExpFloat64())
	i, last := 0, len(cdf)-1
	for k, b := range out {
		r := math.Float64frombits(b) * scale
		for i+8 < last && cdf[i+8] <= r {
			i += 8
		}
		for i < last && cdf[i] <= r {
			i++
		}
		out[k] = uint64(i)
	}
}

// ExpectationDiagonal returns Σ_x |⟨x|ψ⟩|² f(x) for a diagonal observable f
// — e.g. the MaxCut cost of bitstring x.
func (s *State) ExpectationDiagonal(f func(x uint64) float64) float64 {
	var e float64
	for i, a := range s.Amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0 {
			e += p * f(uint64(i))
		}
	}
	return e
}

// ExpectationTable returns Σ_x |⟨x|ψ⟩|² f(x) for a precomputed diagonal
// observable f with small non-negative integer values that is unchanged
// when every bit flips, such as a cut value: vals holds f on the low half
// of the index range, and index x in the upper half reads
// vals[x ^ (len(s.Amp)−1)]. It is the table-lookup fast path of
// ExpectationDiagonal (same summation order, so results are bit-identical
// for float64(vals[x]) == f(x)).
func (s *State) ExpectationTable(vals []uint8) float64 {
	h := len(s.Amp) >> 1
	if len(vals) != h {
		panic(fmt.Sprintf("sim: expectation table has %d entries, state needs %d", len(vals), h))
	}
	var e float64
	for i, a := range s.Amp[:h] {
		if p := real(a)*real(a) + imag(a)*imag(a); p > 0 {
			e += p * float64(vals[i])
		}
	}
	for i, a := range s.Amp[h:] {
		if p := real(a)*real(a) + imag(a)*imag(a); p > 0 {
			e += p * float64(vals[h-1-i])
		}
	}
	return e
}

// FidelityOverlap returns |⟨a|b⟩| — 1 when the states match up to global
// phase.
func FidelityOverlap(a, b *State) float64 {
	if len(a.Amp) != len(b.Amp) {
		panic("sim: overlap of states with different sizes")
	}
	var dot complex128
	for i := range a.Amp {
		dot += cmplx.Conj(a.Amp[i]) * b.Amp[i]
	}
	return cmplx.Abs(dot)
}

// RandomState returns a Haar-ish random normalized state for testing.
func RandomState(n int, rng *rand.Rand) *State {
	s := NewState(n)
	var norm float64
	for i := range s.Amp {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		s.Amp[i] = complex(re, im)
		norm += re*re + im*im
	}
	norm = math.Sqrt(norm)
	for i := range s.Amp {
		s.Amp[i] /= complex(norm, 0)
	}
	return s
}
