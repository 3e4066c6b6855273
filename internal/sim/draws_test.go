package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Direct statistical checks of the per-shot draws: readout flips and
// sampling from a distribution. The byte-for-byte oracles reuse these
// helpers, so only these tests and the exact-channel oracle
// (channel_test.go) hold them to their distributions.

// zWithin fails t when the count seen of an event of probability p over n
// trials lies more than 5 standard errors from n·p.
func zWithin(t *testing.T, what string, seen, n int, p float64) {
	t.Helper()
	se := math.Sqrt(float64(n) * p * (1 - p))
	if d := math.Abs(float64(seen) - float64(n)*p); d > 5*se {
		t.Errorf("%s: %d of %d, want %.1f ± %.1f (5 standard errors)", what, seen, n, float64(n)*p, 5*se)
	}
}

// TestFlipReadoutRatesAndIndependence: over many trajectories of 64 shots,
// each qubit flips at its rate, a rate of 0 never flips and 1 always does,
// and flips are independent across qubits of one shot and across
// consecutive shots of one qubit.
func TestFlipReadoutRatesAndIndependence(t *testing.T) {
	readout := []float64{0.03, 0, 0.2, 0.01, 1, 0.5, 0.07, 0.002}
	nm := &NoiseModel{Readout: readout}
	const calls, shots = 4000, 64
	flips := make([]int, len(readout))
	joint := make([]int, len(readout)) // q and q+1 flipped in one shot
	next := make([]int, len(readout))  // q flipped in shots s and s+1
	out := make([]uint64, shots)
	for call := 0; call < calls; call++ {
		for i := range out {
			out[i] = 0
		}
		flipReadoutAll(out, nm, rand.New(rand.NewSource(int64(call))))
		for s, y := range out {
			for q := range readout {
				if y>>uint(q)&1 == 0 {
					continue
				}
				flips[q]++
				if q+1 < len(readout) && y>>uint(q+1)&1 != 0 {
					joint[q]++
				}
				if s+1 < shots && out[s+1]>>uint(q)&1 != 0 {
					next[q]++
				}
			}
		}
	}
	n := calls * shots
	for q, e := range readout {
		if e == 0 || e == 1 {
			if want := int(e) * n; flips[q] != want {
				t.Errorf("qubit %d at rate %g: %d flips of %d shots", q, e, flips[q], n)
			}
			continue
		}
		zWithin(t, fmt.Sprintf("qubit %d at rate %g", q, e), flips[q], n, e)
		zWithin(t, fmt.Sprintf("qubit %d in consecutive shots", q), next[q], calls*(shots-1), e*e)
		if q+1 < len(readout) {
			zWithin(t, fmt.Sprintf("qubits %d and %d in one shot", q, q+1), joint[q], n, e*readout[q+1])
		}
	}
}

// chiSquareBound is the chi-square value a statistic of df degrees of
// freedom exceeds with probability about 3·10⁻⁶ (Wilson–Hilferty, z = 4.5).
func chiSquareBound(df int) float64 {
	k := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-k+4.5*math.Sqrt(k), 3)
}

// checkChiSquare fails t unless counts fit the distribution p: no draw of
// an outcome of probability 0, and a chi-square statistic under its bound.
func checkChiSquare(t *testing.T, what string, counts, p []float64) {
	t.Helper()
	var n float64
	for _, c := range counts {
		n += c
	}
	var chi float64
	df := -1
	for x, px := range p {
		if px == 0 {
			if counts[x] != 0 {
				t.Errorf("%s: %v draws of outcome %d, of probability 0", what, counts[x], x)
			}
			continue
		}
		d := counts[x] - n*px
		chi += d * d / (n * px)
		df++
	}
	if b := chiSquareBound(df); chi > b {
		t.Errorf("%s: chi-square %.1f over %d degrees of freedom, bound %.1f", what, chi, df, b)
	}
}

// sparseState returns a normalized random state on n qubits whose every
// third amplitude is zero.
func sparseState(n int, rng *rand.Rand) *State {
	s := RandomState(n, rng)
	for i := range s.Amp {
		if i%3 == 1 {
			s.Amp[i] = 0
		}
	}
	norm := s.Norm()
	for i := range s.Amp {
		s.Amp[i] /= complex(norm, 0)
	}
	return s
}

// TestSamplerChiSquare: State.Sample, and sampleFrame over a whole and a
// half register, draw from the distribution their CDF describes, in calls
// of 1, 16 and 1000 shots.
func TestSamplerChiSquare(t *testing.T) {
	const n, total = 6, 1 << 16
	rng := rand.New(rand.NewSource(41))
	s := sparseState(n, rng)
	probs := func(amp []complex128, x uint64) []float64 {
		p := make([]float64, len(amp))
		for i := range p {
			a := amp[uint64(i)^x]
			p[i] = real(a)*real(a) + imag(a)*imag(a)
		}
		return p
	}
	// A register that flipping every bit leaves unchanged, for the half
	// register's sampleFrame.
	sym := sparseState(n, rng)
	for i := range sym.Amp[:len(sym.Amp)/2] {
		sym.Amp[len(sym.Amp)-1-i] = sym.Amp[i]
	}
	norm := sym.Norm()
	for i := range sym.Amp {
		sym.Amp[i] /= complex(norm, 0)
	}
	h := len(sym.Amp) / 2
	cdf := make([]float64, len(s.Amp))
	for _, k := range []int{1, 16, 1000} {
		draws := []struct {
			what   string
			p      []float64
			sample func(out []uint64)
		}{
			{"State.Sample", probs(s.Amp, 0), func(out []uint64) { copy(out, s.Sample(rng, len(out))) }},
			{"sampleFrame, whole register", probs(s.Amp, 0b101101),
				func(out []uint64) { sampleFrame(s.Amp, cdf, 0b101101, rng, out) }},
			{"sampleFrame, half register", probs(sym.Amp, 0b10110),
				func(out []uint64) { sampleFrame(sym.Amp[:h], cdf, 0b10110, rng, out) }},
			{"sampleFrame, half register, top frame bit", probs(sym.Amp, uint64(h)|0b11),
				func(out []uint64) { sampleFrame(sym.Amp[:h], cdf, uint64(h)|0b11, rng, out) }},
		}
		for _, d := range draws {
			counts := make([]float64, len(d.p))
			out := make([]uint64, k)
			for done := 0; done < total; done += k {
				d.sample(out)
				for _, y := range out {
					counts[y]++
				}
			}
			checkChiSquare(t, fmt.Sprintf("%s, %d shots per call", d.what, k), counts, d.p)
		}
	}
}
