package exp

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
)

func TestExtLevelsScaling(t *testing.T) {
	cfg := ExtLevelsConfig{Nodes: 12, Degree: 3, Instances: 6, Levels: []int{1, 3}, Seed: 21}
	tb, err := ExtLevels(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1ic, _ := tb.Lookup("p=1", "IC dep")
	d3ic, _ := tb.Lookup("p=3", "IC dep")
	if d3ic <= d1ic {
		t.Errorf("IC depth should grow with p: %v vs %v", d1ic, d3ic)
	}
	// IC must stay ahead of NAIVE at every level.
	for _, row := range tb.Rows {
		ratio := row.Values[4]
		if ratio >= 1 {
			t.Errorf("%s: IC/NAIVE depth ratio %v not < 1", row.Label, ratio)
		}
	}
	// Depth should scale roughly linearly in p (within 2x of proportional).
	if d3ic > 4*d1ic || d3ic < 1.5*d1ic {
		t.Errorf("suspicious depth scaling: p=1 %v → p=3 %v", d1ic, d3ic)
	}
}

func TestExtMappersOrdering(t *testing.T) {
	cfg := ExtMappersConfig{Nodes: 18, Degree: 3, Instances: 8, Seed: 22}
	tb, err := ExtMappers(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	randSwaps, _ := tb.Lookup("random", "swaps")
	qaimSwaps, _ := tb.Lookup("qaim", "swaps")
	revSwaps, _ := tb.Lookup("reverse-traversal", "swaps")
	if qaimSwaps >= randSwaps {
		t.Errorf("QAIM swaps %v not below random %v", qaimSwaps, randSwaps)
	}
	if revSwaps >= randSwaps {
		t.Errorf("reverse traversal swaps %v not below random %v", revSwaps, randSwaps)
	}
	if _, ok := tb.Lookup("reverse-traversal", "map ms"); !ok {
		t.Error("table lost its map ms column")
	}
	// Reverse traversal pays in mapping work: it routes the circuit 2k
	// times before the compile's own routing pass, where QAIM routes none.
	// Counted, not timed, so the assertion is deterministic.
	routes := func(mapper compile.Mapper) int64 {
		g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, instanceRNG(cfg.Seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		col := obsv.New()
		opts := compile.Options{Mapper: mapper, Strategy: compile.WholeRandom, Rng: instanceRNG(cfg.Seed, 0), Obs: col}
		if _, err := compile.CompileContext(context.Background(), &qaoa.Problem{G: g, MaxCut: 1}, structuralParams, device.Tokyo20(), opts); err != nil {
			t.Fatal(err)
		}
		return col.Counter(obsv.CntRouterRoutes)
	}
	const k = 3 // the default ReverseIterations
	if qaim, rev := routes(compile.MapQAIM), routes(compile.MapReverse); rev != qaim+2*k {
		t.Errorf("reverse traversal routed %d times, QAIM %d: want QAIM + 2k = %d", rev, qaim, qaim+2*k)
	}
}

func TestExtCrosstalkMonotone(t *testing.T) {
	cfg := ExtCrosstalkConfig{Nodes: 10, EdgeProb: 0.5, Instances: 5,
		ProneFracs: []float64{0, 1}, Seed: 23}
	tb, err := ExtCrosstalk(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := tb.Lookup("f=0.00", "depth")
	d1, _ := tb.Lookup("f=1.00", "depth")
	if d1 <= d0 {
		t.Errorf("fully-prone depth %v not above baseline %v", d1, d0)
	}
	o0, _ := tb.Lookup("f=0.00", "depth overhead %")
	if o0 != 0 {
		t.Errorf("zero prone pairs should add zero overhead, got %v%%", o0)
	}
}

func TestExtOptimizeReduces(t *testing.T) {
	cfg := ExtOptimizeConfig{Nodes: 14, Degree: 4, Instances: 6, Seed: 24}
	tb, err := ExtOptimize(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, row := range tb.Rows {
		reduction := row.Values[2]
		if reduction < 0 {
			t.Errorf("%s: optimizer grew gate count (%v%%)", row.Label, reduction)
		}
		total += reduction
	}
	// The fusable patterns (SWAP·CPhase on one pair, U1 merges) are rare in
	// routed circuits, so gains are small but must be real somewhere.
	if total <= 0 {
		t.Errorf("peephole achieved no reduction on any preset")
	}
}

func TestExtDevicesConnectivityMatters(t *testing.T) {
	cfg := ExtDevicesConfig{Nodes: 14, Degree: 3, Instances: 6, Seed: 25}
	tb, err := ExtDevices(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	tokyoSwaps, _ := tb.Lookup("ibmq_20_tokyo", "swaps")
	falconSwaps, _ := tb.Lookup("ibmq_falcon27", "swaps")
	if falconSwaps <= tokyoSwaps {
		t.Errorf("heavy-hex swaps %v not above tokyo %v — connectivity should matter", falconSwaps, tokyoSwaps)
	}
	for _, row := range tb.Rows {
		if row.Values[2] <= 0 || row.Values[3] <= 0 {
			t.Errorf("%s: degenerate metrics %v", row.Label, row.Values)
		}
	}
}

func TestExtOrderingVizingAtBound(t *testing.T) {
	cfg := ExtOrderingConfig{Nodes: 16, Degree: 6, Instances: 6, Seed: 26}
	tb, err := ExtOrdering(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vizLayers, _ := tb.Lookup("vizing", "cost layers")
	moq, _ := tb.Lookup("vizing", "MOQ bound")
	if vizLayers > moq+1 {
		t.Errorf("vizing layers %v exceed Δ+1 = %v", vizLayers, moq+1)
	}
	ipLayers, _ := tb.Lookup("IP", "cost layers")
	if vizLayers > ipLayers {
		t.Errorf("vizing layers %v above IP %v", vizLayers, ipLayers)
	}
}

func TestExtMitigationHelps(t *testing.T) {
	cfg := ExtMitigationConfig{Nodes: 8, Degree: 3, Instances: 2,
		Shots: 2048, Trajectories: 16, Seed: 27}
	tb, err := ExtMitigation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := tb.Lookup("raw", "ARG %")
	mit, _ := tb.Lookup("mitigated", "ARG %")
	if mit >= raw {
		t.Errorf("mitigated ARG %v not below raw %v", mit, raw)
	}
	if mit <= 0 {
		t.Errorf("mitigated ARG %v not positive (gate errors remain)", mit)
	}
}

func TestExtWorkloadsHubsCostLayers(t *testing.T) {
	cfg := ExtWorkloadsConfig{Nodes: 16, Instances: 6, Seed: 28}
	tb, err := ExtWorkloads(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	regMOQ, _ := tb.Lookup("regular", "mean MOQ")
	sfMOQ, _ := tb.Lookup("scalefree", "mean MOQ")
	if sfMOQ <= regMOQ {
		t.Errorf("scale-free MOQ %v not above regular %v (hubs should dominate)", sfMOQ, regMOQ)
	}
	for _, row := range tb.Rows {
		if row.Values[2] <= 0 {
			t.Errorf("%s: degenerate depth", row.Label)
		}
	}
}
