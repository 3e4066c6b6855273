package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

func TestHistogram(t *testing.T) {
	h := Histogram([]uint64{3, 3, 0, 7, 3})
	if h[3] != 3 || h[0] != 1 || h[7] != 1 || len(h) != 3 {
		t.Errorf("Histogram = %v", h)
	}
}

func TestTotalVariation(t *testing.T) {
	a := map[uint64]int{0: 50, 1: 50}
	if tv := totalVariation(a, a); tv != 0 {
		t.Errorf("TV(a,a) = %v", tv)
	}
	b := map[uint64]int{2: 10}
	if tv := totalVariation(a, b); math.Abs(tv-1) > 1e-12 {
		t.Errorf("TV(disjoint) = %v, want 1", tv)
	}
	c := map[uint64]int{0: 100}
	if tv := totalVariation(a, c); math.Abs(tv-0.5) > 1e-12 {
		t.Errorf("TV = %v, want 0.5", tv)
	}
	if tv := totalVariation(a, map[uint64]int{}); tv != 0 {
		t.Errorf("TV against empty = %v", tv)
	}
}

func TestMitigateReadoutExactInversion(t *testing.T) {
	// True state |0⟩ on 1 qubit, e = 0.2 → expected measured distribution
	// (0.8, 0.2); at those exact frequencies mitigation recovers (1, 0).
	counts := map[uint64]int{0: 800, 1: 200}
	p, err := MitigateReadout(counts, 1, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-1) > 1e-12 || math.Abs(p[1]) > 1e-12 {
		t.Errorf("mitigated = %v, want [1 0]", p)
	}
}

func TestMitigateReadoutIdentityWhenNoError(t *testing.T) {
	counts := map[uint64]int{0: 30, 3: 70}
	p, err := MitigateReadout(counts, 2, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-0.3) > 1e-12 || math.Abs(p[3]-0.7) > 1e-12 {
		t.Errorf("no-error mitigation changed distribution: %v", p)
	}
}

func TestMitigateReadoutErrors(t *testing.T) {
	counts := map[uint64]int{0: 1}
	if _, err := MitigateReadout(counts, 0, nil); err == nil {
		t.Error("zero qubits accepted")
	}
	if _, err := MitigateReadout(counts, 2, []float64{0.1}); err == nil {
		t.Error("wrong readout length accepted")
	}
	if _, err := MitigateReadout(counts, 1, []float64{0.6}); err == nil {
		t.Error("error ≥ 0.5 accepted")
	}
	if _, err := MitigateReadout(map[uint64]int{}, 1, []float64{0.1}); err == nil {
		t.Error("empty histogram accepted")
	}
	if _, err := MitigateReadout(map[uint64]int{4: 1}, 2, []float64{0, 0}); err == nil {
		t.Error("out-of-range outcome accepted")
	}
}

func TestClampDistribution(t *testing.T) {
	p := clampDistribution([]float64{0.6, -0.1, 0.5})
	if p[1] != 0 {
		t.Errorf("negative entry survived: %v", p)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("not renormalized: sum %v", sum)
	}
	if z := clampDistribution([]float64{-1, -2}); z[0] != 0 || z[1] != 0 {
		t.Errorf("all-negative input: %v", z)
	}
}

// End-to-end: mitigation must pull the sampled distribution of a Bell state
// under readout noise closer to the ideal one.
func TestMitigationImprovesBellFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bell := circuit.New(2).Append(circuit.NewH(0), circuit.NewCNOT(0, 1))
	ideal := NewState(2).Run(bell)
	idealCounts := Histogram(ideal.Sample(rng, 40000))

	readout := []float64{0.08, 0.12}
	nm := &NoiseModel{Readout: readout}
	noisy := Histogram(SampleNoisy(bell, nm, 40000, 1, rng))

	mitigated, err := MitigateReadout(noisy, 2, readout)
	if err != nil {
		t.Fatal(err)
	}
	clamped := clampDistribution(mitigated)
	// Convert to pseudo-count histograms for the TV comparison.
	mitCounts := map[uint64]int{}
	for x, v := range clamped {
		mitCounts[uint64(x)] = int(v * 1e6)
	}
	before := totalVariation(noisy, idealCounts)
	after := totalVariation(mitCounts, idealCounts)
	if after >= before {
		t.Errorf("mitigation did not help: TV %v → %v", before, after)
	}
	if after > 0.02 {
		t.Errorf("mitigated TV distance %v still large", after)
	}
}

func TestExpectationFromDistribution(t *testing.T) {
	p := []float64{0.25, 0.75}
	got := ExpectationFromDistribution(p, func(x uint64) float64 { return float64(x) })
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("expectation = %v", got)
	}
}

// totalVariation returns the total-variation distance between two outcome
// histograms (each normalized to a distribution first): ½ Σ|p−q| ∈ [0,1].
func totalVariation(p, q map[uint64]int) float64 {
	var np, nq float64
	for _, c := range p {
		np += float64(c)
	}
	for _, c := range q {
		nq += float64(c)
	}
	if np == 0 || nq == 0 {
		return 0
	}
	keys := make(map[uint64]bool, len(p)+len(q))
	for k := range p {
		keys[k] = true
	}
	for k := range q {
		keys[k] = true
	}
	var tv float64
	for k := range keys {
		tv += math.Abs(float64(p[k])/np - float64(q[k])/nq)
	}
	return tv / 2
}

// clampDistribution projects a quasi-probability vector onto the
// probability simplex by zeroing negative entries and renormalizing.
func clampDistribution(p []float64) []float64 {
	out := make([]float64, len(p))
	var sum float64
	for i, v := range p {
		if v > 0 {
			out[i] = v
			sum += v
		}
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}
