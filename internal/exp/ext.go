package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/compile"
	"repro/internal/crosstalk"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// The Ext* runners go beyond the paper's printed evaluation: they cover the
// extensions §VI sketches (multi-level circuits, crosstalk serialization)
// and the design-choice ablations listed in DESIGN.md §5, using the same
// harness conventions as the figure runners.

// ExtLevelsConfig parameterizes the multi-level (p > 1) depth-scaling study.
type ExtLevelsConfig struct {
	Nodes     int
	Degree    int
	Instances int
	Levels    []int
	Seed      int64
}

// DefaultExtLevels returns a 16-node 3-regular sweep over p = 1..4.
func DefaultExtLevels() ExtLevelsConfig {
	return ExtLevelsConfig{Nodes: 16, Degree: 3, Instances: 20, Levels: []int{1, 2, 3, 4}, Seed: 21}
}

// ExtLevels measures how NAIVE and IC compiled depth and gate count scale
// with the QAOA level count p; the IC advantage compounds because every
// level's cost layer is re-ordered under the live layout.
func ExtLevels(ctx context.Context, cfg ExtLevelsConfig) (*Table, error) {
	dev := device.Tokyo20()
	t := &Table{
		ID:      "ext-levels",
		Title:   "depth/gates vs QAOA level count p (NAIVE vs IC)",
		Columns: []string{"NAIVE dep", "IC dep", "NAIVE gat", "IC gat", "IC/NAIVE dep"},
	}
	for _, p := range cfg.Levels {
		params := qaoa.NewParams(p)
		for l := 0; l < p; l++ {
			params.Gamma[l] = 0.5
			params.Beta[l] = 0.2
		}
		var naive, ic []metrics.Sample
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed+int64(p)*97, i)
			g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			for _, preset := range []compile.Preset{compile.PresetNaive, compile.PresetIC} {
				res, err := compile.CompileContext(ctx, prob, params, dev, preset.Options(instanceRNG(cfg.Seed, i*10+int(preset))))
				if err != nil {
					return nil, err
				}
				s := metrics.Sample{Depth: res.Depth, GateCount: res.GateCount}
				if preset == compile.PresetNaive {
					naive = append(naive, s)
				} else {
					ic = append(ic, s)
				}
			}
		}
		na, ia := metrics.Collect(naive), metrics.Collect(ic)
		t.Add(fmt.Sprintf("p=%d", p),
			na.Depth.Mean, ia.Depth.Mean, na.GateCount.Mean, ia.GateCount.Mean,
			metrics.Ratio(ia.Depth.Mean, na.Depth.Mean))
	}
	return t, nil
}

// ExtMappersConfig parameterizes the initial-mapping ablation.
type ExtMappersConfig struct {
	Nodes     int
	Degree    int
	Instances int
	Seed      int64
}

// DefaultExtMappers returns a 20-node 3-regular configuration.
func DefaultExtMappers() ExtMappersConfig {
	return ExtMappersConfig{Nodes: 20, Degree: 3, Instances: 20, Seed: 22}
}

// ExtMappers ablates the initial-mapping policy — random, GreedyV, QAIM and
// reverse traversal (Li et al.) — under a fixed ordering strategy (random),
// reporting compiled depth, swaps, and the mapping pass's own cost.
func ExtMappers(ctx context.Context, cfg ExtMappersConfig) (*Table, error) {
	dev := device.Tokyo20()
	mappers := []compile.Mapper{compile.MapRandom, compile.MapGreedyV, compile.MapQAIM, compile.MapReverse}
	t := &Table{
		ID:      "ext-mappers",
		Title:   "initial-mapping ablation (random CPhase order, tokyo)",
		Columns: []string{"depth", "gates", "swaps", "map ms"},
	}
	for _, mapper := range mappers {
		var samples []metrics.Sample
		var mapMillis float64
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed, i)
			g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			opts := compile.Options{
				Mapper:   mapper,
				Strategy: compile.WholeRandom,
				Rng:      instanceRNG(cfg.Seed, i*10+int(mapper)),
			}
			res, err := compile.CompileContext(ctx, prob, structuralParams, dev, opts)
			if err != nil {
				return nil, err
			}
			samples = append(samples, metrics.Sample{
				Depth: res.Depth, GateCount: res.GateCount, SwapCount: res.SwapCount,
			})
			mapMillis += float64(res.Times.Map.Microseconds()) / 1000
		}
		agg := metrics.Collect(samples)
		t.Add(mapper.String(), agg.Depth.Mean, agg.GateCount.Mean, agg.SwapCount.Mean,
			mapMillis/float64(cfg.Instances))
	}
	return t, nil
}

// ExtCrosstalkConfig parameterizes the crosstalk-serialization study.
type ExtCrosstalkConfig struct {
	Nodes      int
	EdgeProb   float64
	Instances  int
	ProneFracs []float64 // fraction of adjacent coupler pairs marked prone
	Seed       int64
}

// DefaultExtCrosstalk mirrors the Murali et al. observation that only a few
// couplings are prone: fractions from 0 to 25%.
func DefaultExtCrosstalk() ExtCrosstalkConfig {
	return ExtCrosstalkConfig{Nodes: 12, EdgeProb: 0.5, Instances: 20,
		ProneFracs: []float64{0, 0.05, 0.1, 0.25}, Seed: 23}
}

// ExtCrosstalk measures the depth cost of crosstalk-aware serialization
// (§VI): IC-compiled circuits on melbourne are re-scheduled so no prone
// coupler pair runs concurrently, for growing prone-set sizes.
func ExtCrosstalk(ctx context.Context, cfg ExtCrosstalkConfig) (*Table, error) {
	dev := device.Melbourne15()
	var edges [][2]int
	for _, e := range dev.Coupling.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	candidates := crosstalk.AdjacentCouplerPairs(edges, dev.Connected)

	t := &Table{
		ID:      "ext-crosstalk",
		Title:   "crosstalk-aware schedule depth vs prone-pair fraction (IC, melbourne)",
		Columns: []string{"prone pairs", "depth", "depth overhead %"},
	}
	for _, frac := range cfg.ProneFracs {
		prng := rand.New(rand.NewSource(cfg.Seed * 31))
		prone := crosstalk.NewPronePairs()
		for _, pr := range candidates {
			if prng.Float64() < frac {
				prone.Add(pr[0][0], pr[0][1], pr[1][0], pr[1][1])
			}
		}
		var baseSum, xtSum float64
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed, i)
			g, err := sampleGraph(ErdosRenyi, cfg.Nodes, cfg.EdgeProb, rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			res, err := compile.CompileContext(ctx, prob, structuralParams, dev,
				compile.PresetIC.Options(instanceRNG(cfg.Seed, i*10)))
			if err != nil {
				return nil, err
			}
			baseSum += float64(res.Circuit.Depth())
			xtSum += float64(crosstalk.Depth(res.Circuit, prone))
		}
		base := baseSum / float64(cfg.Instances)
		xt := xtSum / float64(cfg.Instances)
		t.Add(fmt.Sprintf("f=%.2f", frac), float64(prone.Len()), xt,
			metrics.PercentChange(base, xt))
	}
	return t, nil
}

// ExtOptimizeConfig parameterizes the peephole-optimizer gains study.
type ExtOptimizeConfig struct {
	Nodes     int
	Degree    int
	Instances int
	Seed      int64
}

// DefaultExtOptimize returns a 16-node 4-regular configuration.
func DefaultExtOptimize() ExtOptimizeConfig {
	return ExtOptimizeConfig{Nodes: 16, Degree: 4, Instances: 20, Seed: 24}
}

// ExtOptimize measures the native gate-count reduction the peephole
// optimizer achieves on top of each compilation methodology.
func ExtOptimize(ctx context.Context, cfg ExtOptimizeConfig) (*Table, error) {
	dev := device.Tokyo20()
	t := &Table{
		ID:      "ext-optimize",
		Title:   "peephole gains: native gate count plain vs optimized",
		Columns: []string{"plain gates", "opt gates", "reduction %"},
	}
	for _, preset := range []compile.Preset{compile.PresetNaive, compile.PresetQAIM, compile.PresetIP, compile.PresetIC} {
		var plainSum, optSum float64
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed, i)
			g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			plainOpts := preset.Options(instanceRNG(cfg.Seed, i*10+int(preset)))
			plain, err := compile.CompileContext(ctx, prob, structuralParams, dev, plainOpts)
			if err != nil {
				return nil, err
			}
			optOpts := preset.Options(instanceRNG(cfg.Seed, i*10+int(preset)))
			optOpts.Optimize = true
			opt, err := compile.CompileContext(ctx, prob, structuralParams, dev, optOpts)
			if err != nil {
				return nil, err
			}
			plainSum += float64(plain.GateCount)
			optSum += float64(opt.GateCount)
		}
		plainMean := plainSum / float64(cfg.Instances)
		optMean := optSum / float64(cfg.Instances)
		t.Add(preset.String(), plainMean, optMean, -metrics.PercentChange(plainMean, optMean))
	}
	return t, nil
}

// ExtDevicesConfig parameterizes the topology-comparison study.
type ExtDevicesConfig struct {
	Nodes     int
	Degree    int
	Instances int
	Seed      int64
}

// DefaultExtDevices returns a 14-node 3-regular configuration that fits
// every compared device.
func DefaultExtDevices() ExtDevicesConfig {
	return ExtDevicesConfig{Nodes: 14, Degree: 3, Instances: 20, Seed: 25}
}

// ExtDevices compares IC-compiled circuit quality across device topologies
// of different connectivity: tokyo's dense mesh, melbourne's ladder, the
// heavy-hex falcon generation, and a plain grid. Sparser coupling costs
// SWAPs — quantifying how much the paper's tokyo results depend on its
// rich connectivity.
func ExtDevices(ctx context.Context, cfg ExtDevicesConfig) (*Table, error) {
	devs := []*device.Device{
		device.Tokyo20(), device.Melbourne15(), device.Falcon27(), device.Grid(4, 4),
	}
	t := &Table{
		ID:      "ext-devices",
		Title:   "IC compiled quality across device topologies (14-node 3-regular)",
		Columns: []string{"qubits", "couplers", "depth", "gates", "swaps"},
	}
	for _, dev := range devs {
		var samples []metrics.Sample
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed, i)
			g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			res, err := compile.CompileContext(ctx, prob, structuralParams, dev,
				compile.PresetIC.Options(instanceRNG(cfg.Seed, i*10)))
			if err != nil {
				return nil, err
			}
			samples = append(samples, metrics.Sample{
				Depth: res.Depth, GateCount: res.GateCount, SwapCount: res.SwapCount,
			})
		}
		agg := metrics.Collect(samples)
		t.Add(dev.Name, float64(dev.NQubits()), float64(dev.Coupling.M()),
			agg.Depth.Mean, agg.GateCount.Mean, agg.SwapCount.Mean)
	}
	return t, nil
}

// ExtOrderingConfig parameterizes the IP-vs-Vizing ordering ablation.
type ExtOrderingConfig struct {
	Nodes     int
	Degree    int
	Instances int
	Seed      int64
}

// DefaultExtOrdering returns a 18-node 6-regular configuration (dense
// enough that the layer-count difference matters).
func DefaultExtOrdering() ExtOrderingConfig {
	return ExtOrderingConfig{Nodes: 18, Degree: 6, Instances: 20, Seed: 26}
}

// ExtOrdering ablates the cost-block ordering pass: IP's first-fit bin
// packing vs Misra–Gries edge coloring (Vizing's Δ+1 guarantee), reporting
// the logical layer count against the MOQ = Δ lower bound and the routed
// depth on tokyo.
func ExtOrdering(ctx context.Context, cfg ExtOrderingConfig) (*Table, error) {
	dev := device.Tokyo20()
	t := &Table{
		ID:      "ext-ordering",
		Title:   "cost-block ordering: IP bin packing vs Vizing coloring",
		Columns: []string{"cost layers", "MOQ bound", "routed depth", "routed gates"},
	}
	type strat struct {
		name     string
		strategy compile.Strategy
	}
	for _, st := range []strat{{"IP", compile.WholeIP}, {"vizing", compile.WholeColor}} {
		var layerSum, moqSum float64
		var samples []metrics.Sample
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed, i)
			g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			opts := compile.Options{Mapper: compile.MapQAIM, Strategy: st.strategy,
				Rng: instanceRNG(cfg.Seed, i*10)}
			res, err := compile.CompileContext(ctx, prob, structuralParams, dev, opts)
			if err != nil {
				return nil, err
			}
			// Logical cost-block layer count: order the terms with the
			// strategy and measure the ASAP depth of the bare block.
			var ordered []compile.ZZTerm
			terms := make([]compile.ZZTerm, 0, g.M())
			for _, e := range g.Edges() {
				ordered = nil
				terms = append(terms, compile.ZZTerm{U: e.U, V: e.V, Theta: 0.5})
			}
			if st.strategy == compile.WholeIP {
				layers := compile.IPTermLayers(cfg.Nodes, terms, instanceRNG(cfg.Seed, i*10+1), 0)
				layerSum += float64(len(layers))
			} else {
				ordered, err = compile.ColorTermOrder(cfg.Nodes, terms)
				if err != nil {
					return nil, err
				}
				block := circuitFromTerms(cfg.Nodes, ordered)
				layerSum += float64(block.Depth())
			}
			moqSum += float64(compile.MOQ(g))
			samples = append(samples, metrics.Sample{Depth: res.Depth, GateCount: res.GateCount})
		}
		agg := metrics.Collect(samples)
		t.Add(st.name, layerSum/float64(cfg.Instances), moqSum/float64(cfg.Instances),
			agg.Depth.Mean, agg.GateCount.Mean)
	}
	return t, nil
}

// ExtMitigationConfig parameterizes the readout-mitigation study.
type ExtMitigationConfig struct {
	Nodes        int
	Degree       int
	Instances    int
	Shots        int
	Trajectories int
	Seed         int64
}

// DefaultExtMitigation returns a 12-node 3-regular configuration.
func DefaultExtMitigation() ExtMitigationConfig {
	return ExtMitigationConfig{Nodes: 12, Degree: 3, Instances: 10,
		Shots: 8192, Trajectories: 32, Seed: 27}
}

// ExtMitigation measures how much of the approximation-ratio gap tensored
// readout-error mitigation recovers: VIC-compiled circuits run on the noisy
// melbourne model, ARG computed from raw counts and from mitigated counts.
// Gate errors remain, so mitigation closes only the readout share.
func ExtMitigation(ctx context.Context, cfg ExtMitigationConfig) (*Table, error) {
	dev := device.Melbourne15()
	nm := sim.NoiseFromDevice(dev)
	var rawSum, mitSum float64
	count := 0
	for i := 0; i < cfg.Instances; i++ {
		rng := instanceRNG(cfg.Seed, i)
		g, err := graphs.RandomRegular(cfg.Nodes, cfg.Degree, rng)
		if err != nil {
			return nil, err
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			return nil, err
		}
		if prob.MaxCut == 0 {
			continue
		}
		gamma, beta, _, err := optimize.MaximizeP1(func(gm, bt float64) float64 {
			return qaoa.ExpectationP1Analytic(g, gm, bt)
		}, 16)
		if err != nil {
			return nil, err
		}
		res, err := compile.CompileContext(ctx, prob, qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}},
			dev, compile.PresetVIC.Options(instanceRNG(cfg.Seed, i*10)))
		if err != nil {
			return nil, err
		}
		srng := instanceRNG(cfg.Seed, i*10+5)
		// Noise first: the executor's ideal run then serves every
		// checkpoint on its way to the end (see exp.MeasureARG).
		ex := sim.NewExecutor(res.Circuit)
		noisySamples := ex.SampleNoisy(nm, cfg.Shots, cfg.Trajectories, srng)
		rhRaw, err := approxRatioPhysical(prob, res, noisySamples)
		if err != nil {
			return nil, err
		}
		r0, err := approxRatioPhysical(prob, res, ex.SampleIdeal(srng, cfg.Shots))
		if err != nil {
			return nil, err
		}
		mitigated, err := sim.MitigateReadout(sim.Histogram(noisySamples), dev.NQubits(), dev.Calib.ReadoutError)
		if err != nil {
			return nil, err
		}
		// Use the unclamped quasi-probabilities: their expectation is an
		// unbiased estimator, whereas clamping a sparse 2^15-outcome
		// histogram at finite shots introduces bias.
		meanCut := sim.ExpectationFromDistribution(mitigated, func(y uint64) float64 {
			return prob.Cost(res.ExtractLogical(y))
		})
		rhMit := meanCut / float64(prob.MaxCut)
		rawSum += qaoa.ARG(r0, rhRaw)
		mitSum += qaoa.ARG(r0, rhMit)
		count++
	}
	t := &Table{
		ID:      "ext-mitigation",
		Title:   "ARG with and without readout-error mitigation (VIC, melbourne)",
		Columns: []string{"ARG %"},
	}
	t.Add("raw", rawSum/float64(count))
	t.Add("mitigated", mitSum/float64(count))
	return t, nil
}

// ExtWorkloadsConfig parameterizes the workload-family sensitivity study.
type ExtWorkloadsConfig struct {
	Nodes     int
	Instances int
	Seed      int64
}

// DefaultExtWorkloads returns a 16-node configuration.
func DefaultExtWorkloads() ExtWorkloadsConfig {
	return ExtWorkloadsConfig{Nodes: 16, Instances: 20, Seed: 28}
}

// ExtWorkloads compares IC-compiled quality across problem-graph families
// with matched edge budgets: Erdős–Rényi, random regular, Watts–Strogatz
// small-world, and Barabási–Albert scale-free. Hub-heavy instances force
// more cost layers (MOQ = max degree), the workload effect §V-E attributes
// to disproportionate node connectivity.
func ExtWorkloads(ctx context.Context, cfg ExtWorkloadsConfig) (*Table, error) {
	dev := device.Tokyo20()
	n := cfg.Nodes
	families := []struct {
		name   string
		sample func(rng *rand.Rand) (*graphs.Graph, error)
	}{
		{"er", func(rng *rand.Rand) (*graphs.Graph, error) {
			return graphs.ErdosRenyi(n, 4.0/float64(n-1), rng), nil // mean degree ≈ 4
		}},
		{"regular", func(rng *rand.Rand) (*graphs.Graph, error) {
			return graphs.RandomRegular(n, 4, rng)
		}},
		{"smallworld", func(rng *rand.Rand) (*graphs.Graph, error) {
			return graphs.WattsStrogatz(n, 4, 0.2, rng)
		}},
		{"scalefree", func(rng *rand.Rand) (*graphs.Graph, error) {
			return graphs.BarabasiAlbert(n, 2, rng) // ≈ 2 edges per node
		}},
	}
	t := &Table{
		ID:      "ext-workloads",
		Title:   "IC quality across workload families (16 nodes, tokyo)",
		Columns: []string{"mean edges", "mean MOQ", "depth", "gates", "swaps"},
	}
	for _, fam := range families {
		var edgeSum, moqSum float64
		var samples []metrics.Sample
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(cfg.Seed, i)
			g, err := fam.sample(rng)
			if err != nil {
				return nil, err
			}
			prob := &qaoa.Problem{G: g, MaxCut: 1}
			res, err := compile.CompileContext(ctx, prob, structuralParams, dev,
				compile.PresetIC.Options(instanceRNG(cfg.Seed, i*10)))
			if err != nil {
				return nil, err
			}
			edgeSum += float64(g.M())
			moqSum += float64(compile.MOQ(g))
			samples = append(samples, metrics.Sample{
				Depth: res.Depth, GateCount: res.GateCount, SwapCount: res.SwapCount,
			})
		}
		agg := metrics.Collect(samples)
		t.Add(fam.name, edgeSum/float64(cfg.Instances), moqSum/float64(cfg.Instances),
			agg.Depth.Mean, agg.GateCount.Mean, agg.SwapCount.Mean)
	}
	return t, nil
}
