package exp

import (
	"context"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/metrics"
	"repro/internal/qaoa"
)

// DiscussionConfig parameterizes the §VI comparative analysis: IC (+QAIM)
// against the NAIVE flow on an 8-qubit cyclic architecture, over 8-node
// erdos-renyi graphs with exactly 8 edges (the workload of the
// temporal-planner comparison against Venturelli et al.).
type DiscussionConfig struct {
	Nodes     int // paper: 8
	Edges     int // paper: exactly 8
	Instances int // paper: 50
	Seed      int64
}

// DefaultDiscussion returns the paper's configuration.
func DefaultDiscussion() DiscussionConfig {
	return DiscussionConfig{Nodes: 8, Edges: 8, Instances: 50, Seed: 6}
}

// Discussion reproduces the §VI comparison: mean depth and gate count of
// IC (+QAIM) vs the NAIVE flow on the 8-qubit ring, plus the percentage
// reductions (the paper reports 8.51% depth and 12.99% gate-count savings
// against the temporal-planner baseline on the same workload).
func Discussion(ctx context.Context, cfg DiscussionConfig) (*Table, error) {
	dev := device.Ring(cfg.Nodes)
	var naiveS, icS []metrics.Sample
	for i := 0; i < cfg.Instances; i++ {
		rng := instanceRNG(cfg.Seed, i)
		g, err := graphs.ErdosRenyiExactEdges(cfg.Nodes, cfg.Edges, rng)
		if err != nil {
			return nil, err
		}
		prob := &qaoa.Problem{G: g, MaxCut: 1}
		for _, preset := range []compile.Preset{compile.PresetNaive, compile.PresetIC} {
			opts := preset.Options(instanceRNG(cfg.Seed, i*10+int(preset)))
			res, err := compile.CompileContext(ctx, prob, structuralParams, dev, opts)
			if err != nil {
				return nil, err
			}
			s := metrics.Sample{Depth: res.Depth, GateCount: res.GateCount,
				SwapCount: res.SwapCount, CompileTime: res.Times.Total(), SuccessProb: 1}
			if preset == compile.PresetNaive {
				naiveS = append(naiveS, s)
			} else {
				icS = append(icS, s)
			}
		}
	}
	na := metrics.Collect(naiveS)
	ic := metrics.Collect(icS)
	t := &Table{
		ID:      "disc",
		Title:   "IC vs NAIVE on 8-qubit ring, 8-node/8-edge graphs",
		Columns: []string{"depth", "gates", "time(s)"},
	}
	t.Add("NAIVE", na.Depth.Mean, na.GateCount.Mean, na.CompileSec.Mean)
	t.Add("IC", ic.Depth.Mean, ic.GateCount.Mean, ic.CompileSec.Mean)
	t.Add("reduction %",
		-metrics.PercentChange(na.Depth.Mean, ic.Depth.Mean),
		-metrics.PercentChange(na.GateCount.Mean, ic.GateCount.Mean),
		-metrics.PercentChange(na.CompileSec.Mean, ic.CompileSec.Mean))
	return t, nil
}
