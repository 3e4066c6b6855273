package loop

import (
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
)

// The loop-level benchmark the CI compile-bench job gates on: a batch of
// hybrid evaluations over one skeleton compile. Each iteration builds a
// fresh evaluator seeded identically, so the reported work counters
// (compiles/op, binds/op) are deterministic — any growth is a real
// regression, not benchstat noise.

func benchProblem(b *testing.B) *qaoa.Problem {
	b.Helper()
	g := graphs.MustRandomRegular(10, 3, rand.New(rand.NewSource(31)))
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

const benchEvalsPerOp = 8

// BenchmarkLoopBindPerEval runs a fixed batch of evaluations per op — the
// shape of an optimizer's inner loop — and reports the deterministic
// compile-work counters.
func BenchmarkLoopBindPerEval(b *testing.B) {
	prob := benchProblem(b)
	angles := make([]qaoa.Params, benchEvalsPerOp)
	for i := range angles {
		angles[i] = qaoa.Params{Gamma: []float64{0.1 * float64(i+1)}, Beta: []float64{0.07 * float64(i+1)}}
	}
	obs := obsv.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw := &HardwareEvaluator{
			Prob: prob, Dev: device.Melbourne15(), Preset: compile.PresetIC,
			P: 1, Shots: 64, Trajectories: 2,
			Rng: rand.New(rand.NewSource(31)), Obs: obs,
		}
		for _, params := range angles {
			if _, err := hw.Expectation(params); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(obs.Counter(obsv.CntCompilations))/n, "compiles/op")
	b.ReportMetric(float64(obs.Counter(obsv.CntCompileBinds))/n, "binds/op")
}
