package graphs

import (
	"fmt"
	"math/rand"
)

// ErdosRenyi samples G(n, p): each of the n(n-1)/2 possible edges is
// included independently with probability p. The rng must be non-nil so
// experiments stay reproducible.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// ErdosRenyiConnected samples G(n,p) conditioned on the graph having at
// least one edge per vertex participating in the largest workload use-case;
// it simply resamples until the graph is connected (up to maxTries).
// QAOA-MaxCut instances on disconnected graphs are still valid, but the
// paper's workloads are effectively connected for the densities studied.
func ErdosRenyiConnected(n int, p float64, rng *rand.Rand, maxTries int) (*Graph, error) {
	for t := 0; t < maxTries; t++ {
		g := ErdosRenyi(n, p, rng)
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graphs: no connected G(%d,%.3f) sample in %d tries", n, p, maxTries)
}

// ErdosRenyiExactEdges samples a uniform graph on n vertices with exactly m
// edges (the G(n,m) model). Used by the §VI comparison against Venturelli et
// al. (8-node graphs with exactly 8 edges).
func ErdosRenyiExactEdges(n, m int, rng *rand.Rand) (*Graph, error) {
	max := n * (n - 1) / 2
	if m > max {
		return nil, fmt.Errorf("graphs: %d edges exceed maximum %d for %d vertices", m, max, n)
	}
	g := New(n)
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v)
	}
	return g, nil
}

// RandomRegular samples a random d-regular graph on n vertices using the
// configuration (pairing) model with stub re-matching (the algorithm used by
// networkx, after Kim & Vu): stubs are shuffled and paired; pairs that would
// form a self-loop or parallel edge return their stubs to the pool and the
// remaining stubs are re-shuffled. The attempt restarts from scratch if the
// leftover stubs can no longer be completed. This converges quickly for the
// densities used in the paper (d ≤ 15, n ≤ 36).
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graphs: degree %d invalid for %d vertices", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graphs: n*d = %d*%d is odd; no %d-regular graph on %d vertices", n, d, d, n)
	}
	if d == 0 {
		return New(n), nil
	}
	const maxRestarts = 2000
	for t := 0; t < maxRestarts; t++ {
		if g := tryRegular(n, d, rng); g != nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graphs: pairing model failed to produce a simple %d-regular graph on %d vertices", d, n)
}

// tryRegular performs one attempt of the stub-matching construction and
// returns nil when the attempt dead-ends.
func tryRegular(n, d int, rng *rand.Rand) *Graph {
	g := New(n)
	g.edges = make([]Edge, 0, n*d/2) // the graph it returns has this many
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	leftover := make([]int, 0, n*d)
	for len(stubs) > 0 {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		leftover = leftover[:0]
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || g.HasEdge(u, v) {
				leftover = append(leftover, u, v)
				continue
			}
			g.MustAddEdge(u, v)
		}
		if len(leftover) == len(stubs) {
			// No progress: check whether any suitable pair remains.
			if !anySuitablePair(g, leftover) {
				return nil
			}
		}
		stubs, leftover = append(stubs[:0], leftover...), stubs
	}
	return g
}

// anySuitablePair reports whether some pair of distinct stubs could still be
// joined without creating a self-loop or duplicate edge.
func anySuitablePair(g *Graph, stubs []int) bool {
	for i := 0; i < len(stubs); i++ {
		for j := i + 1; j < len(stubs); j++ {
			if stubs[i] != stubs[j] && !g.HasEdge(stubs[i], stubs[j]) {
				return true
			}
		}
	}
	return false
}

// MustRandomRegular is RandomRegular but panics on error; for workload
// generation with parameters known to be feasible.
func MustRandomRegular(n, d int, rng *rand.Rand) *Graph {
	g, err := RandomRegular(n, d, rng)
	if err != nil {
		panic(err)
	}
	return g
}
