package exp

import (
	"context"
	"math"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// AngleSweepConfig parameterizes the p=1 (γ,β) landscape sweep: for each
// random-regular instance the full grid of angle points is evaluated on the
// compiled circuit, the workload an angle-tuning client sends at a
// compiler. The circuit structure is angle-independent, so the sweep
// compiles a routed skeleton once per instance and binds each grid point
// into a reused buffer; each bound circuit is byte-identical to a full
// compile of that point.
type AngleSweepConfig struct {
	Nodes      int
	Degree     int
	Instances  int
	GammaSteps int // grid points over γ ∈ (0, π]
	BetaSteps  int // grid points over β ∈ (0, π/2]
	Preset     compile.Preset
	Seed       int64
}

// DefaultAngleSweep returns a sweep sized like one angle-tuning session:
// a 12×12 grid over 10-node 3-regular instances on the ring device (the
// swap-heavy topology of the §VI comparison, where routing dominates).
func DefaultAngleSweep() AngleSweepConfig {
	return AngleSweepConfig{
		Nodes:      10,
		Degree:     3,
		Instances:  4,
		GammaSteps: 12,
		BetaSteps:  12,
		Preset:     compile.PresetIC,
		Seed:       17,
	}
}

// AngleSweep evaluates the exact ⟨C⟩ landscape of each instance over the
// (γ,β) grid using the compiled physical circuit, and reports the best
// point found per instance plus the mean best approximation ratio. The
// compile-work counters (compile/compilations vs compile/binds) expose the
// skeleton win: Instances compiles instead of Instances×GammaSteps×BetaSteps.
func AngleSweep(ctx context.Context, cfg AngleSweepConfig) (*Table, error) {
	dev := device.Ring(cfg.Nodes)
	t := &Table{
		ID:      "ext-sweep",
		Title:   "p=1 (γ,β) landscape sweep on the ring (skeleton bind per point)",
		Columns: []string{"best ⟨C⟩", "ratio", "γ*", "β*"},
	}
	var ratioSum float64
	rows := 0
	for i := 0; i < cfg.Instances; i++ {
		g, err := sampleGraph(Regular, cfg.Nodes, float64(cfg.Degree), instanceRNG(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			return nil, err
		}
		best, bestGamma, bestBeta := math.Inf(-1), 0.0, 0.0

		ps, err := compile.ParamSpecFromMaxCut(prob, 1)
		if err != nil {
			return nil, err
		}
		opts := cfg.Preset.Options(instanceRNG(cfg.Seed, i*10+1))
		opts.Obs = Collector()
		skel, err := compile.CompileSkeleton(ctx, ps, dev, opts)
		if err != nil {
			return nil, err
		}
		var buf compile.BindBuffer
		for gi := 0; gi < cfg.GammaSteps; gi++ {
			gamma := math.Pi * float64(gi+1) / float64(cfg.GammaSteps)
			for bi := 0; bi < cfg.BetaSteps; bi++ {
				beta := math.Pi / 2 * float64(bi+1) / float64(cfg.BetaSteps)
				params := qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
				res, err := skel.BindTo(&buf, params)
				if err != nil {
					return nil, err
				}
				st := sim.NewState(res.Circuit.NQubits)
				st.Run(res.Circuit)
				exp := st.ExpectationDiagonal(func(x uint64) float64 {
					return prob.Cost(res.ExtractLogical(x))
				})
				if exp > best {
					best, bestGamma, bestBeta = exp, gamma, beta
				}
			}
		}
		ratio := best / float64(prob.MaxCut)
		ratioSum += ratio
		rows++
		t.Add("instance", best, ratio, bestGamma, bestBeta)
	}
	if rows > 0 {
		t.Add("mean ratio", nan(), ratioSum/float64(rows), nan(), nan())
	}
	return t, nil
}
