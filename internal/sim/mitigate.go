package sim

import "fmt"

// Histogram counts measurement outcomes.
func Histogram(samples []uint64) map[uint64]int {
	h := make(map[uint64]int)
	for _, x := range samples {
		h[x]++
	}
	return h
}

// MitigateReadout inverts independent per-qubit readout errors on a
// measured histogram: each qubit's confusion matrix [[1−e, e],[e, 1−e]] is
// inverted and applied to the outcome distribution, recovering an unbiased
// estimate of the pre-readout probabilities (the standard tensored
// measurement-error mitigation). The result is a quasi-probability vector
// over all 2^n outcomes — entries may dip slightly below zero at finite
// shots.
// Error rates must be below 0.5 (beyond that the channel is not invertible
// in a useful direction).
func MitigateReadout(counts map[uint64]int, n int, readout []float64) ([]float64, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d outside (0,%d]", n, MaxQubits)
	}
	if len(readout) != n {
		return nil, fmt.Errorf("sim: %d readout errors for %d qubits", len(readout), n)
	}
	total := 0
	for x, c := range counts {
		if x >= 1<<uint(n) {
			return nil, fmt.Errorf("sim: outcome %b exceeds %d qubits", x, n)
		}
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("sim: empty histogram")
	}
	p := make([]float64, 1<<uint(n))
	for x, c := range counts {
		p[x] = float64(c) / float64(total)
	}
	for q, e := range readout {
		if e < 0 || e >= 0.5 {
			return nil, fmt.Errorf("sim: readout error %v on qubit %d outside [0, 0.5)", e, q)
		}
		if e == 0 {
			continue
		}
		// Inverse confusion matrix: 1/(1−2e) · [[1−e, −e], [−e, 1−e]].
		inv := 1 / (1 - 2*e)
		a := (1 - e) * inv
		b := -e * inv
		bit := 1 << uint(q)
		for i := range p {
			if i&bit != 0 {
				continue
			}
			j := i | bit
			p0, p1 := p[i], p[j]
			p[i] = a*p0 + b*p1
			p[j] = b*p0 + a*p1
		}
	}
	return p, nil
}

// ExpectationFromDistribution evaluates a diagonal observable against an
// outcome distribution (mitigated or raw).
func ExpectationFromDistribution(p []float64, f func(x uint64) float64) float64 {
	var e float64
	for x, v := range p {
		if v != 0 {
			e += v * f(uint64(x))
		}
	}
	return e
}
