package exp

import (
	"context"
	"math"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// AngleSweep's table must equal the landscape of a full concrete compile
// per grid point, exactly: every point compiles from the identically seeded
// rng the sweep's skeleton compile uses, and the bound circuit is
// byte-identical to that compile (the skeleton oracle contract).
func TestAngleSweepBindMatchesFullCompile(t *testing.T) {
	cfg := AngleSweepConfig{Nodes: 8, Degree: 3, Instances: 2, GammaSteps: 3, BetaSteps: 3, Seed: 17}
	got, err := AngleSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	dev := device.Ring(cfg.Nodes)
	var want []Row
	var ratioSum float64
	for i := 0; i < cfg.Instances; i++ {
		g, err := sampleGraph(Regular, cfg.Nodes, float64(cfg.Degree), instanceRNG(cfg.Seed, i))
		if err != nil {
			t.Fatal(err)
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		best, bestGamma, bestBeta := math.Inf(-1), 0.0, 0.0
		for gi := 0; gi < cfg.GammaSteps; gi++ {
			gamma := math.Pi * float64(gi+1) / float64(cfg.GammaSteps)
			for bi := 0; bi < cfg.BetaSteps; bi++ {
				beta := math.Pi / 2 * float64(bi+1) / float64(cfg.BetaSteps)
				params := qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
				res, err := compile.CompileContext(context.Background(), prob, params, dev,
					cfg.Preset.Options(instanceRNG(cfg.Seed, i*10+1)))
				if err != nil {
					t.Fatal(err)
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
		want = append(want, Row{Label: "instance", Values: []float64{best, ratio, bestGamma, bestBeta}})
	}
	want = append(want, Row{Label: "mean ratio", Values: []float64{nan(), ratioSum / float64(cfg.Instances), nan(), nan()}})

	if len(got.Rows) != len(want) {
		t.Fatalf("row count: sweep %d, full compile %d", len(got.Rows), len(want))
	}
	for i := range want {
		gr, wr := got.Rows[i], want[i]
		if gr.Label != wr.Label || len(gr.Values) != len(wr.Values) {
			t.Fatalf("row %d: sweep %+v, full compile %+v", i, gr, wr)
		}
		for j := range wr.Values {
			g, w := gr.Values[j], wr.Values[j]
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("row %d col %d: sweep %v, full compile %v", i, j, g, w)
			}
		}
	}
}

// The sweep compiles once per instance and binds per grid point — the
// compile-work collapse the skeleton layer exists for.
func TestAngleSweepCompilesOncePerInstance(t *testing.T) {
	obs := obsv.New()
	SetCollector(obs)
	defer SetCollector(nil)
	cfg := AngleSweepConfig{Nodes: 8, Degree: 3, Instances: 2, GammaSteps: 3, BetaSteps: 4, Seed: 17}
	if _, err := AngleSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := obs.Counter(obsv.CntSkeletonCompiles); got != 2 {
		t.Errorf("skeleton compiles = %d, want 2 (one per instance)", got)
	}
	if got := obs.Counter(obsv.CntCompileBinds); got != 2*3*4 {
		t.Errorf("binds = %d, want %d (one per grid point)", got, 2*3*4)
	}
	// The skeleton compile itself runs the spec pipeline once per instance;
	// no per-point compilations happen on the bind path.
	if got := obs.Counter(obsv.CntCompilations); got != 2 {
		t.Errorf("pipeline compilations = %d, want 2 (skeleton compiles only)", got)
	}
}
