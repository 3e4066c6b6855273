package compile

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graphs"
)

// IPTermLayers implements the paper's Instruction Parallelization (§IV-B)
// over generic commuting ZZ terms: the operations are ranked by the
// cumulative operation count of their endpoints (descending, ties random)
// and packed first-fit into MOQ layers (MOQ = the maximum operations on any
// qubit — the lower bound on the layer count). Operations that fit no layer
// are re-packed into fresh rounds of layers until none remain. packingLimit
// (>0) caps the terms per layer.
func IPTermLayers(n int, terms []ZZTerm, rng *rand.Rand, packingLimit int) [][]ZZTerm {
	pending := append([]ZZTerm(nil), terms...)
	var layers [][]ZZTerm
	for len(pending) > 0 {
		// Qubit usage statistics for this round.
		ops := make([]int, n)
		for _, t := range pending {
			ops[t.U]++
			ops[t.V]++
		}
		moq := 0
		for _, c := range ops {
			if c > moq {
				moq = c
			}
		}

		// Rank: cumulative operations on the two endpoints, descending;
		// equal ranks ordered randomly.
		rng.Shuffle(len(pending), func(i, j int) {
			pending[i], pending[j] = pending[j], pending[i]
		})
		sort.SliceStable(pending, func(a, b int) bool {
			ra := ops[pending[a].U] + ops[pending[a].V]
			rb := ops[pending[b].U] + ops[pending[b].V]
			return ra > rb
		})

		// MOQ empty layers of qubit bins; first-fit decreasing.
		round := make([][]ZZTerm, moq)
		occupied := make([]map[int]bool, moq)
		for i := range occupied {
			occupied[i] = make(map[int]bool)
		}
		var unassigned []ZZTerm
		for _, t := range pending {
			placed := false
			for li := 0; li < moq; li++ {
				if packingLimit > 0 && len(round[li]) >= packingLimit {
					continue
				}
				if !occupied[li][t.U] && !occupied[li][t.V] {
					round[li] = append(round[li], t)
					occupied[li][t.U], occupied[li][t.V] = true, true
					placed = true
					break
				}
			}
			if !placed {
				unassigned = append(unassigned, t)
			}
		}
		for _, l := range round {
			if len(l) > 0 {
				layers = append(layers, l)
			}
		}
		pending = unassigned
	}
	return layers
}

func flattenTermLayers(layers [][]ZZTerm) []ZZTerm {
	var out []ZZTerm
	for _, l := range layers {
		out = append(out, l...)
	}
	return out
}

// IPLayers is the MaxCut view of IPTermLayers: it packs the problem-graph
// edges (unit ZZ terms) and returns layers of edges.
func IPLayers(g *graphs.Graph, rng *rand.Rand, packingLimit int) [][]graphs.Edge {
	terms := make([]ZZTerm, 0, g.M())
	for _, e := range g.Edges() {
		terms = append(terms, ZZTerm{U: e.U, V: e.V})
	}
	termLayers := IPTermLayers(g.N(), terms, rng, packingLimit)
	layers := make([][]graphs.Edge, len(termLayers))
	for i, tl := range termLayers {
		layers[i] = make([]graphs.Edge, len(tl))
		for j, t := range tl {
			layers[i][j] = graphs.Edge{U: t.U, V: t.V, Weight: 1}
		}
	}
	return layers
}

// IPOrder flattens IPLayers into the gate sequence handed to the backend.
func IPOrder(g *graphs.Graph, rng *rand.Rand, packingLimit int) []graphs.Edge {
	var order []graphs.Edge
	for _, layer := range IPLayers(g, rng, packingLimit) {
		order = append(order, layer...)
	}
	return order
}

// MOQ returns the maximum number of CPhase operations on any single qubit —
// the lower bound on the number of cost layers (§IV-B Step 1).
func MOQ(g *graphs.Graph) int {
	return g.MaxDegree()
}

// ColorTermOrder orders commuting ZZ terms by Misra–Gries edge coloring:
// the terms of each color class form a matching and are emitted together,
// so the cost block schedules in at most Δ+1 concurrent layers — Vizing's
// guarantee, against which IP's first-fit bin packing is a heuristic.
// Duplicate pairs (several terms on the same qubit pair) are not supported.
func ColorTermOrder(n int, terms []ZZTerm) ([]ZZTerm, error) {
	g := graphs.New(n)
	termAt := make(map[[2]int]ZZTerm, len(terms))
	for _, t := range terms {
		u, v := t.U, t.V
		if u > v {
			u, v = v, u
		}
		if _, dup := termAt[[2]int{u, v}]; dup {
			return nil, fmt.Errorf("compile: duplicate ZZ term (%d,%d) in coloring order", t.U, t.V)
		}
		termAt[[2]int{u, v}] = t
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	colors, err := graphs.EdgeColoring(g)
	if err != nil {
		return nil, err
	}
	maxColor := 0
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	var out []ZZTerm
	for c := 1; c <= maxColor; c++ {
		for i, e := range g.Edges() {
			if colors[i] == c {
				out = append(out, termAt[[2]int{e.U, e.V}])
			}
		}
	}
	return out, nil
}
