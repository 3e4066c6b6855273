package compile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

// fig4Graph is the worked IP example of Fig. 4: CPhase list
// {(1,5),(2,3),(1,4),(2,4)} on qubits 1..5, relabelled to 0..4.
func fig4Graph() *graphs.Graph {
	g := graphs.New(5)
	g.MustAddEdge(0, 4) // (1,5)
	g.MustAddEdge(1, 2) // (2,3)
	g.MustAddEdge(0, 3) // (1,4)
	g.MustAddEdge(1, 3) // (2,4)
	return g
}

func TestMOQFig4(t *testing.T) {
	if got := MOQ(fig4Graph()); got != 2 {
		t.Errorf("MOQ = %d, want 2", got)
	}
}

// The Fig. 4 example must pack into exactly MOQ = 2 layers of 2 gates.
func TestIPLayersFig4(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		layers := IPLayers(fig4Graph(), rand.New(rand.NewSource(seed)), 0)
		if len(layers) != 2 {
			t.Fatalf("seed %d: %d layers, want 2 (%v)", seed, len(layers), layers)
		}
		for _, l := range layers {
			if len(l) != 2 {
				t.Fatalf("seed %d: layer sizes %d/%d, want 2/2", seed, len(layers[0]), len(layers[1]))
			}
		}
	}
}

func validLayers(g *graphs.Graph, layers [][]graphs.Edge) bool {
	seen := make(map[[2]int]int)
	for _, layer := range layers {
		occupied := make(map[int]bool)
		for _, e := range layer {
			if occupied[e.U] || occupied[e.V] {
				return false // qubit reused within a layer
			}
			occupied[e.U], occupied[e.V] = true, true
			seen[[2]int{e.U, e.V}]++
		}
	}
	if len(seen) != g.M() {
		return false
	}
	for _, c := range seen {
		if c != 1 {
			return false
		}
	}
	return true
}

// Property: IP layers partition the edge set, never share a qubit within a
// layer, and never use fewer than MOQ layers.
func TestIPLayersInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		g := graphs.ErdosRenyi(n, 0.15+0.6*rng.Float64(), rng)
		layers := IPLayers(g, rng, 0)
		if !validLayers(g, layers) {
			return false
		}
		if g.M() > 0 && len(layers) < MOQ(g) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// For regular graphs, first-fit-decreasing typically reaches close to MOQ;
// assert a sane upper bound (≤ MOQ+2) on mid-size instances.
func TestIPLayersNearOptimalOnRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := graphs.MustRandomRegular(16, 5, rng)
		layers := IPLayers(g, rng, 0)
		if len(layers) > MOQ(g)+2 {
			t.Errorf("trial %d: %d layers for MOQ %d", trial, len(layers), MOQ(g))
		}
	}
}

func TestIPLayersPackingLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graphs.MustRandomRegular(12, 4, rng)
	layers := IPLayers(g, rng, 2)
	if !validLayers(g, layers) {
		t.Fatal("invalid layers under packing limit")
	}
	for i, l := range layers {
		if len(l) > 2 {
			t.Errorf("layer %d has %d gates, limit 2", i, len(l))
		}
	}
}

func TestIPOrderCoversAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graphs.ErdosRenyi(10, 0.5, rng)
	order := IPOrder(g, rng, 0)
	if len(order) != g.M() {
		t.Fatalf("order has %d edges, graph has %d", len(order), g.M())
	}
	seen := make(map[[2]int]bool)
	for _, e := range order {
		seen[[2]int{e.U, e.V}] = true
	}
	for _, e := range g.Edges() {
		if !seen[[2]int{e.U, e.V}] {
			t.Errorf("edge (%d,%d) missing from IP order", e.U, e.V)
		}
	}
}

func TestIPLayersEmptyGraph(t *testing.T) {
	g := graphs.New(5)
	layers := IPLayers(g, rand.New(rand.NewSource(1)), 0)
	if len(layers) != 0 {
		t.Errorf("edgeless graph produced %d layers", len(layers))
	}
}

func TestColorTermOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graphs.MustRandomRegular(14, 5, rng)
	terms := make([]ZZTerm, 0, g.M())
	for _, e := range g.Edges() {
		terms = append(terms, ZZTerm{U: e.U, V: e.V, Theta: 0.5})
	}
	ordered, err := ColorTermOrder(14, terms)
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) != len(terms) {
		t.Fatalf("order lost terms: %d of %d", len(ordered), len(terms))
	}
	seen := map[[2]int]bool{}
	for _, tm := range ordered {
		k := [2]int{tm.U, tm.V}
		if seen[k] {
			t.Fatalf("duplicate term %v", k)
		}
		seen[k] = true
	}
}

func TestColorTermOrderRejectsDuplicates(t *testing.T) {
	terms := []ZZTerm{{U: 0, V: 1}, {U: 1, V: 0}}
	if _, err := ColorTermOrder(2, terms); err == nil {
		t.Error("duplicate pair accepted")
	}
}

// The Vizing order must schedule the pure cost block within Δ+1 layers on
// fully-connected hardware — tighter than or equal to IP.
func TestColorOrderLayerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		g := graphs.MustRandomRegular(16, 6, rng)
		terms := make([]ZZTerm, 0, g.M())
		for _, e := range g.Edges() {
			terms = append(terms, ZZTerm{U: e.U, V: e.V, Theta: 0.3})
		}
		ordered, err := ColorTermOrder(16, terms)
		if err != nil {
			t.Fatal(err)
		}
		c := circuit.New(16)
		for _, tm := range ordered {
			c.Append(circuit.NewCPhase(tm.U, tm.V, tm.Theta))
		}
		if d := c.Depth(); d > g.MaxDegree()+1 {
			t.Errorf("trial %d: colored cost block depth %d > Δ+1 = %d", trial, d, g.MaxDegree()+1)
		}
	}
}

// Compilation through the Vizing strategy preserves semantics.
func TestWholeColorSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graphs.ErdosRenyi(7, 0.5, rng)
	prob := mustProblem2(t, g)
	gamma, beta := 0.6, 0.3
	opts := Options{Mapper: MapQAIM, Strategy: WholeColor, Rng: rng}
	res, err := Compile(prob, qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}, device.Melbourne15(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := qaoa.ExpectationP1Analytic(g, gamma, beta)
	if got := physicalExpectation(prob, res); math.Abs(got-want) > 1e-8 {
		t.Errorf("vizing ⟨C⟩ = %v, want %v", got, want)
	}
	if WholeColor.String() != "vizing" {
		t.Error("strategy name wrong")
	}
}

func mustProblem2(t *testing.T, g *graphs.Graph) *qaoa.Problem {
	t.Helper()
	p, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
