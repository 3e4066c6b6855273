package qaoa

import (
	"math/rand"
	"testing"

	"repro/internal/graphs"
)

func TestCostTableMatchesCutValueBits(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		n := 2 + rng.Intn(9)
		g := graphs.ErdosRenyi(n, 0.4, rng)
		p := &Problem{G: g, MaxCut: 1}
		tbl := p.CostTable()
		if tbl == nil {
			t.Fatalf("trial %d: nil table for n=%d", trial, n)
		}
		if len(tbl) != 1<<uint(n-1) {
			t.Fatalf("trial %d: table length %d, want %d", trial, len(tbl), 1<<uint(n-1))
		}
		for x := uint64(0); x < 1<<uint(n); x++ {
			v, ok := cutFromTable(tbl, x)
			if want := float64(graphs.CutValueBits(g, x)); !ok || float64(v) != want {
				t.Fatalf("trial %d: cut of %#x from the table = %d (%v), CutValueBits = %g", trial, x, v, ok, want)
			}
		}
		if _, ok := cutFromTable(tbl, 1<<uint(n)); ok {
			t.Fatalf("trial %d: the table claims bitstring %#x beyond its %d vertices", trial, 1<<uint(n), n)
		}
	}
}

func TestCostTableCachedAndUsedByCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graphs.ErdosRenyi(8, 0.5, rng)
	p := &Problem{G: g, MaxCut: 1}
	before := make([]float64, 1<<8)
	for x := range before {
		before[x] = p.Cost(uint64(x))
	}
	tbl := p.CostTable()
	if &tbl[0] != &p.CostTable()[0] {
		t.Fatal("CostTable rebuilt on second call")
	}
	for x := range before {
		if got := p.Cost(uint64(x)); got != before[x] {
			t.Fatalf("Cost(%#x) changed from %g to %g after table build", x, before[x], got)
		}
	}
}

func TestCostTableNilAboveCap(t *testing.T) {
	g := graphs.New(CostTableMaxQubits + 1)
	g.MustAddEdge(0, 1)
	p := &Problem{G: g, MaxCut: 1}
	if tbl := p.CostTable(); tbl != nil {
		t.Fatalf("expected nil table for %d qubits, got length %d", CostTableMaxQubits+1, len(tbl))
	}
	// Cost still works through the edge-scan fallback.
	if got := p.Cost(1); got != 1 {
		t.Fatalf("fallback Cost = %g, want 1", got)
	}
}

func TestApproximationRatioTableAndScanAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graphs.ErdosRenyi(10, 0.5, rng)
	prob, err := NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	// Large sample set: triggers the table build inside ApproximationRatio.
	samples := make([]uint64, 5000)
	for i := range samples {
		samples[i] = uint64(rng.Intn(1 << 10))
	}
	viaTable, err := ApproximationRatio(prob, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Independent problem value, small batches: stays on the edge scan.
	scan := NewMaxCutBounded(g, prob.MaxCut)
	var sum float64
	for _, x := range samples {
		sum += scan.Cost(x)
	}
	want := sum / float64(len(samples)) / float64(prob.MaxCut)
	if d := viaTable - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("ApproximationRatio = %g, edge-scan mean ratio = %g", viaTable, want)
	}
}
