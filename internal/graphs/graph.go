// Package graphs provides the undirected-graph substrate used throughout the
// QAOA compilation study: problem graphs for MaxCut instances, hardware
// coupling graphs, random-graph workload generators, all-pairs shortest
// paths, and an exact MaxCut solver for computing approximation ratios.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected.
// Vertices are dense integers in [0, N). Edges may carry a float64 weight;
// unweighted algorithms treat every edge as weight 1.
package graphs

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected edge between vertices U and V with an optional
// weight. Invariant maintained by Graph: U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Canonical returns the edge with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graphs: vertex %d not an endpoint of edge (%d,%d)", v, e.U, e.V))
}

// Graph is a simple undirected graph over vertices 0..N-1.
//
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	n     int
	adj   [][]int // adjacency lists, kept sorted
	edges []Edge  // canonical edge list in insertion order
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graphs: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		c.AddWeightedEdge(e.U, e.V, e.Weight)
	}
	return c
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list in insertion order. The returned slice must
// not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the sorted adjacency list of v. The returned slice must
// not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// HasEdge reports whether an edge between u and v exists. It searches u's
// sorted adjacency list, so a graph carries no lookup index: workloads keep
// many small graphs live.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// edgeIndex returns the index into edges of the edge between u and v. It
// scans the edge list: its callers, the weight accessors, are off every
// hot path.
func (g *Graph) edgeIndex(u, v int) (int, bool) {
	if u > v {
		u, v = v, u
	}
	for i, e := range g.edges {
		if e.U == u && e.V == v {
			return i, true
		}
	}
	return 0, false
}

// EdgeWeight returns the weight of edge (u,v) and whether the edge exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	i, ok := g.edgeIndex(u, v)
	if !ok {
		return 0, false
	}
	return g.edges[i].Weight, true
}

// AddEdge inserts the unweighted (weight 1) edge (u,v). Inserting an edge
// that already exists, a self-loop, or an edge with an out-of-range endpoint
// is an error.
func (g *Graph) AddEdge(u, v int) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge inserts edge (u,v) with weight w.
func (g *Graph) AddWeightedEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graphs: edge (%d,%d) out of range for %d vertices", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graphs: self-loop at vertex %d", u)
	}
	if u > v {
		u, v = v, u
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graphs: duplicate edge (%d,%d)", u, v)
	}
	g.insert(u, v)
	g.insert(v, u)
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
	return nil
}

// MustAddEdge is AddEdge but panics on error; intended for statically-known
// topologies such as hardware coupling graphs.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// SetEdgeWeight updates the weight of an existing edge.
func (g *Graph) SetEdgeWeight(u, v int, w float64) error {
	i, ok := g.edgeIndex(u, v)
	if !ok {
		return fmt.Errorf("graphs: no edge (%d,%d)", u, v)
	}
	g.edges[i].Weight = w
	return nil
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.Weight
	}
	return s
}

// MaxDegree returns the largest vertex degree (0 for an edgeless graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// IsConnected reports whether the graph is connected (the empty and the
// single-vertex graphs count as connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// Triangles returns, for each edge index i, the number of common neighbours
// of the edge's endpoints (the number of triangles through that edge). Used
// by the analytic p=1 MaxCut expectation.
func (g *Graph) Triangles() []int {
	tri := make([]int, len(g.edges))
	for i, e := range g.edges {
		tri[i] = countCommon(g.adj[e.U], g.adj[e.V])
	}
	return tri
}

// String renders the graph as "n=<N> m=<M> edges=[...]".
func (g *Graph) String() string {
	s := fmt.Sprintf("n=%d m=%d edges=[", g.n, g.m())
	for i, e := range g.edges {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("(%d,%d)", e.U, e.V)
	}
	return s + "]"
}

func (g *Graph) m() int { return len(g.edges) }

// insert adds v to u's adjacency list, keeping it sorted.
func (g *Graph) insert(u, v int) {
	i := sort.SearchInts(g.adj[u], v)
	g.adj[u] = slices.Insert(g.adj[u], i, v)
}

// countCommon counts elements present in both sorted slices.
func countCommon(a, b []int) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
