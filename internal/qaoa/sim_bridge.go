package qaoa

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// This file holds everything that couples qaoa to the simulator — the
// expectation bridge and the cut-value table feeding its diagonal sweep —
// so the package's dependency on sim stays explicit and minimal.

// CostTableMaxQubits bounds the dense cut-value table: 2^22 bytes is
// 4 MiB, comfortably beyond the ≤ 20-qubit instances of the paper's
// experiments. Larger problems fall back to per-sample edge scans.
const CostTableMaxQubits = 22

// A simple graph on CostTableMaxQubits vertices has at most n(n−1)/2 edges
// (231). Typed uint8, this stops compiling if a larger limit would let a
// cut value outgrow a table entry.
const _ uint8 = CostTableMaxQubits * (CostTableMaxQubits - 1) / 2

// CostTable returns the cut-value table of the bitstrings whose top vertex
// bit is clear, tbl[x] = cut value of x for every x < 2^(n−1) (one entry
// for n ≤ 1), building and caching it on first use; nil when the graph
// exceeds CostTableMaxQubits. A cut is unchanged when every vertex changes
// side, so x with the top bit set has the cut of x ^ (2^n−1), and the
// table holds every cut value in half the bytes (cutFromTable reads it).
// The build is O(1) per entry: with h the highest set bit of x, flipping
// vertex h to side 1 changes the cut by deg(h) minus twice the number of
// h's neighbors already on side 1, all read off precomputed neighbor
// bitmasks. Cut values are edge counts, and a graph on at most
// CostTableMaxQubits vertices has at most 231 edges, so a byte holds every
// one exactly at an eighth of the memory of float64; the table is the bulk
// of what a problem keeps alive.
//
// The table turns both the simulator's diagonal expectation sweep and
// large-sample approximation ratios from O(edges) per bitstring into one
// lookup; Cost consults it transparently once built.
func (p *Problem) CostTable() []uint8 {
	if t := p.costTab.Load(); t != nil {
		return *t
	}
	if p.G.N() > CostTableMaxQubits {
		return nil
	}
	tbl := buildCutTable(p.G)
	p.costTab.Store(&tbl)
	if col := sim.Collector(); col.Enabled() {
		col.Inc(obsv.CntSimCutTableBuilds)
	}
	return tbl
}

// cutFromTable returns the cut value of bitstring x read off tbl, a table
// from CostTable, and false when x lies outside the 2·len(tbl) bitstrings
// the table covers.
func cutFromTable(tbl []uint8, x uint64) (uint8, bool) {
	h := uint64(len(tbl))
	if x >= h {
		x ^= 2*h - 1
	}
	if x >= h {
		return 0, false
	}
	return tbl[x], true
}

// buildCutTable computes the cut-value table of the bitstrings with the
// top vertex bit clear by the highest-bit DP described on CostTable.
func buildCutTable(g *graphs.Graph) []uint8 {
	n := g.N()
	nbr := make([]uint64, n)
	for _, e := range g.Edges() {
		nbr[e.U] |= 1 << uint(e.V)
		nbr[e.V] |= 1 << uint(e.U)
	}
	tbl := make([]uint8, 1<<uint(max(n-1, 0)))
	for x := uint64(1); x < uint64(len(tbl)); x++ {
		h := bits.Len64(x) - 1
		rest := x &^ (1 << uint(h))
		delta := bits.OnesCount64(nbr[h]) - 2*bits.OnesCount64(nbr[h]&rest)
		tbl[x] = uint8(int(tbl[rest]) + delta)
	}
	return tbl
}

// simExpectation runs the circuit on the state-vector simulator and
// evaluates the MaxCut observable, through the cached cut-value table when
// the instance fits it.
func simExpectation(c *circuit.Circuit, p *Problem) float64 {
	st := sim.NewState(c.NQubits).Run(c)
	if tbl := p.CostTable(); tbl != nil && 2*len(tbl) == len(st.Amp) {
		return st.ExpectationTable(tbl)
	}
	return st.ExpectationDiagonal(p.Cost)
}
