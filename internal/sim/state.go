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
	if imag(m[0][0]) == 0 && imag(m[0][1]) == 0 && imag(m[1][0]) == 0 && imag(m[1][1]) == 0 {
		s.apply1QReal(bit, real(m[0][0]), real(m[0][1]), real(m[1][0]), real(m[1][1]))
		return
	}
	if imag(m[0][0]) == 0 && imag(m[1][1]) == 0 && real(m[0][1]) == 0 && real(m[1][0]) == 0 {
		s.apply1QCross(bit, real(m[0][0]), imag(m[0][1]), imag(m[1][0]), real(m[1][1]))
		return
	}
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	n := len(s.Amp)
	for base := 0; base < n; base += bit << 1 {
		lo := s.Amp[base : base+bit]
		hi := s.Amp[base+bit : base+bit+bit][:len(lo)]
		for k := range lo {
			a0, a1 := lo[k], hi[k]
			lo[k] = m00*a0 + m01*a1
			hi[k] = m10*a0 + m11*a1
		}
	}
}

// apply1QReal is Apply1Q for an all-real matrix: each output component is a
// real linear combination, so a pair costs 8 real multiplies instead of 16.
func (s *State) apply1QReal(bit int, m00, m01, m10, m11 float64) {
	n := len(s.Amp)
	for base := 0; base < n; base += bit << 1 {
		lo := s.Amp[base : base+bit]
		hi := s.Amp[base+bit : base+bit+bit][:len(lo)]
		for k := range lo {
			a0, a1 := lo[k], hi[k]
			lo[k] = complex(m00*real(a0)+m01*real(a1), m00*imag(a0)+m01*imag(a1))
			hi[k] = complex(m10*real(a0)+m11*real(a1), m10*imag(a0)+m11*imag(a1))
		}
	}
}

// apply1QCross is Apply1Q for m = [[a, i·b], [i·c, d]] with a, b, c, d real
// (RX and Y have this shape): i·b·a1 contributes (-b·Im a1, b·Re a1), so the
// pair again costs 8 real multiplies.
func (s *State) apply1QCross(bit int, a, b, c, d float64) {
	n := len(s.Amp)
	for base := 0; base < n; base += bit << 1 {
		lo := s.Amp[base : base+bit]
		hi := s.Amp[base+bit : base+bit+bit][:len(lo)]
		for k := range lo {
			a0, a1 := lo[k], hi[k]
			lo[k] = complex(a*real(a0)-b*imag(a1), a*imag(a0)+b*real(a1))
			hi[k] = complex(d*real(a1)-c*imag(a0), d*imag(a1)+c*real(a0))
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

// Sample draws shots basis states from the measurement distribution.
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

// sampleCDFInto fills out with draws from a prebuilt CDF — the shared-CDF
// fast path of Executor for trajectories that reuse the ideal state.
func sampleCDFInto(cdf []float64, rng *rand.Rand, out []uint64) {
	total := cdf[len(cdf)-1]
	for k := range out {
		out[k] = uint64(searchCDF(cdf, rng.Float64()*total))
	}
}

// searchCDF returns the smallest index i with cdf[i] > r.
func searchCDF(cdf []float64, r float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
