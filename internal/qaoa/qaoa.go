// Package qaoa builds Quantum Approximate Optimization Algorithm circuits
// for MaxCut problems and evaluates their quality: cost functions,
// expectation values (simulated and analytic for p=1), approximation ratios
// over sample sets, and the paper's Approximation Ratio Gap (ARG) metric.
package qaoa

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/graphs"
)

// Problem is a MaxCut instance: the problem graph plus its exact optimum
// (needed for approximation ratios).
type Problem struct {
	G      *graphs.Graph
	MaxCut int

	// costTab caches the dense per-bitstring cut-value table (see
	// CostTable). Lazily built; atomic so concurrent evaluations of a
	// shared Problem stay race-free.
	costTab atomic.Pointer[[]uint8]
}

// NewMaxCut wraps g as a MaxCut problem, computing the exact optimum by
// exhaustive search (n ≤ 26).
func NewMaxCut(g *graphs.Graph) (*Problem, error) {
	best, _, err := graphs.MaxCutExact(g)
	if err != nil {
		return nil, err
	}
	return &Problem{G: g, MaxCut: best}, nil
}

// NewMaxCutBounded wraps g with a caller-supplied optimum (for instances too
// large for exhaustive search).
func NewMaxCutBounded(g *graphs.Graph, optimum int) *Problem {
	return &Problem{G: g, MaxCut: optimum}
}

// NumQubits returns the number of logical qubits (= graph vertices).
func (p *Problem) NumQubits() int { return p.G.N() }

// Cost returns the cut value of bitstring x (bit v = side of vertex v).
// When the cut-value table has been built (see CostTable) this is a single
// array lookup instead of an O(edges) scan.
func (p *Problem) Cost(x uint64) float64 {
	if t := p.costTab.Load(); t != nil {
		if v, ok := cutFromTable(*t, x); ok {
			return float64(v)
		}
	}
	return float64(graphs.CutValueBits(p.G, x))
}

// Params are the 2p QAOA angles: Gamma[l] drives the cost layer of level l
// and Beta[l] the mixer layer.
type Params struct {
	Gamma []float64
	Beta  []float64
}

// NewParams returns zeroed parameters for p levels.
func NewParams(p int) Params {
	return Params{Gamma: make([]float64, p), Beta: make([]float64, p)}
}

// P returns the number of QAOA levels.
func (p Params) P() int { return len(p.Gamma) }

// Validate checks that gamma and beta have equal, positive length.
func (p Params) Validate() error {
	if len(p.Gamma) != len(p.Beta) {
		return fmt.Errorf("qaoa: %d gammas but %d betas", len(p.Gamma), len(p.Beta))
	}
	if len(p.Gamma) == 0 {
		return fmt.Errorf("qaoa: zero-level parameter set")
	}
	return nil
}

// CostLayer returns the commuting CPhase gates implementing the level-l cost
// unitary e^{-iγC} for MaxCut cost C = Σ_e (1−Z_uZ_v)/2, one gate per edge
// in the given order. The gate angle is −γ because our CPhase(θ) is
// exp(-iθ/2 Z⊗Z) and e^{-iγC} = (global phase)·Π_e exp(+iγ/2 Z_uZ_v).
func CostLayer(g *graphs.Graph, gamma float64, order []graphs.Edge) []circuit.Gate {
	if order == nil {
		order = g.Edges()
	}
	gates := make([]circuit.Gate, 0, len(order))
	for _, e := range order {
		gates = append(gates, circuit.NewCPhase(e.U, e.V, -gamma))
	}
	return gates
}

// MixerLayer returns RX(2β) on every qubit — the transverse-field mixer
// e^{-iβ ΣX}.
func MixerLayer(n int, beta float64) []circuit.Gate {
	gates := make([]circuit.Gate, 0, n)
	for q := 0; q < n; q++ {
		gates = append(gates, circuit.NewRX(q, 2*beta))
	}
	return gates
}

// BuildCircuit constructs the full p-level QAOA state-preparation circuit
// (no measurements): H on all qubits, then per level the cost layer (edges
// in the supplied order, or the graph's edge order when order is nil)
// followed by the mixer layer.
func BuildCircuit(p *Problem, params Params, order []graphs.Edge) (*circuit.Circuit, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := p.NumQubits()
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for l := 0; l < params.P(); l++ {
		c.Append(CostLayer(p.G, params.Gamma[l], order)...)
		c.Append(MixerLayer(n, params.Beta[l])...)
	}
	return c, nil
}

// ApproximationRatio returns (mean cut over samples) / optimum — the
// paper's QAOA performance measure. It returns an error for a problem with
// a non-positive recorded optimum or an empty sample set.
func ApproximationRatio(p *Problem, samples []uint64) (float64, error) {
	if p.MaxCut <= 0 {
		return 0, fmt.Errorf("qaoa: problem optimum %d not positive", p.MaxCut)
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("qaoa: empty sample set")
	}
	// A dense cut table costs 2^n O(1) steps once; the per-sample scan costs
	// O(edges) each. Build (and cache on p) when the sample set is large
	// enough to amortize the construction.
	if n := p.G.N(); n <= CostTableMaxQubits && len(samples)*4 >= 1<<uint(n) {
		p.CostTable()
	}
	var sum float64
	for _, x := range samples {
		sum += p.Cost(x)
	}
	return sum / float64(len(samples)) / float64(p.MaxCut), nil
}

// ARG is the Approximation Ratio Gap: the percentage drop from the
// noiseless approximation ratio r0 to the hardware (noisy) ratio rh,
// 100·(r0−rh)/r0. Lower is better.
func ARG(r0, rh float64) float64 {
	if r0 == 0 {
		return 0
	}
	return 100 * (r0 - rh) / r0
}

// ExpectationP1Analytic evaluates the closed-form p=1 MaxCut expectation
// ⟨C⟩(γ,β) (Wang, Hadfield, Jiang & Rieffel, PRA 97, 022304 (2018)):
//
//	⟨C_uv⟩ = 1/2 + 1/4 sin4β sinγ (cos^{du}γ + cos^{dv}γ)
//	        − 1/4 sin²2β cos^{du+dv−2λ}γ (1 − cos^λ 2γ)
//
// where du = deg(u)−1, dv = deg(v)−1 and λ is the number of triangles
// through edge (u,v). The total is the sum over edges. This matches
// simulation of BuildCircuit exactly and lets experiments pick optimal
// angles without a simulator call per candidate.
func ExpectationP1Analytic(g *graphs.Graph, gamma, beta float64) float64 {
	tri := g.Triangles()
	s4b := math.Sin(4 * beta)
	s2b := math.Sin(2 * beta)
	sg := math.Sin(gamma)
	cg := math.Cos(gamma)
	c2g := math.Cos(2 * gamma)
	var total float64
	for i, e := range g.Edges() {
		du := float64(g.Degree(e.U) - 1)
		dv := float64(g.Degree(e.V) - 1)
		lam := float64(tri[i])
		term := 0.5
		term += 0.25 * s4b * sg * (math.Pow(cg, du) + math.Pow(cg, dv))
		term -= 0.25 * s2b * s2b * math.Pow(cg, du+dv-2*lam) * (1 - math.Pow(c2g, lam))
		total += term
	}
	return total
}

// Expectation simulates the logical QAOA circuit exactly and returns ⟨C⟩.
// Limited by the simulator's register cap (≤ 24 qubits).
func Expectation(p *Problem, params Params) (float64, error) {
	c, err := BuildCircuit(p, params, nil)
	if err != nil {
		return 0, err
	}
	return simExpectation(c, p), nil
}

// ExpectationSampled estimates ⟨C⟩ from measurement samples along with the
// standard error of the mean — what a finite-shot hardware run reports.
func ExpectationSampled(p *Problem, samples []uint64) (mean, stderr float64, err error) {
	if len(samples) == 0 {
		return 0, 0, fmt.Errorf("qaoa: empty sample set")
	}
	var sum, sq float64
	for _, x := range samples {
		c := p.Cost(x)
		sum += c
		sq += c * c
	}
	n := float64(len(samples))
	mean = sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	stderr = math.Sqrt(variance / n)
	return mean, stderr, nil
}
