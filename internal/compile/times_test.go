package compile

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
)

// spanOf returns the named span's count and exact total from a snapshot.
// SpanStat carries seconds as a float64; rounding back to nanoseconds is
// exact far beyond any test's total.
func spanOf(snap obsv.Snapshot, name string) (int64, time.Duration) {
	for _, sp := range snap.Spans {
		if sp.Name == name {
			return sp.Count, time.Duration(math.Round(sp.TotalSec * 1e9))
		}
	}
	return 0, 0
}

var stageSpans = []string{
	obsv.SpanCompileMap, obsv.SpanCompileOrder, obsv.SpanCompileRoute,
	obsv.SpanCompileStitch, obsv.SpanCompileLower,
}

// The stage spans partition compile/total: across every preset, the
// edge-coloring strategy, peephole optimization on and off, and a skeleton
// compile, they sum to it to the nanosecond. compile/total is recorded once
// per compile call and compile/stitch once per incremental compile, and a
// compile's Times.Total is exactly what it recorded.
func TestCompileStagesSumToTotal(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(5)))
	prob := mustProblem(t, g)
	dev := device.Melbourne15()
	col := obsv.New()
	calls, incremental := 0, 0
	compileOne := func(opts Options) *Result {
		t.Helper()
		opts.Obs = col
		res, err := Compile(prob, p1Params(0.5, 0.2), dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		calls++
		if opts.Strategy == Incremental || opts.Strategy == IncrementalVariation {
			incremental++
		}
		return res
	}
	for _, preset := range Presets {
		for _, optimize := range []bool{false, true} {
			opts := preset.Options(rand.New(rand.NewSource(int64(preset) + 1)))
			opts.Optimize = optimize
			compileOne(opts)
		}
	}
	compileOne(Options{Mapper: MapQAIM, Strategy: WholeColor})

	ps, err := ParamSpecFromMaxCut(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := PresetIC.Options(rand.New(rand.NewSource(9)))
	opts.Obs = col
	sk, err := CompileSkeleton(context.Background(), ps, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	calls++
	incremental++
	bound, err := sk.Bind(p1Params(0.3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if bound.Times.Total() <= 0 || bound.Times.Stitch <= 0 {
		t.Errorf("bound result carries no skeleton stage times: %+v", bound.Times)
	}

	snap := col.Snapshot()
	totalCount, total := spanOf(snap, obsv.SpanCompileTotal)
	if totalCount != int64(calls) {
		t.Errorf("compile/total recorded %d times over %d compiles", totalCount, calls)
	}
	var sum time.Duration
	for _, name := range stageSpans {
		_, d := spanOf(snap, name)
		sum += d
	}
	if sum != total {
		t.Errorf("stage spans sum to %v, compile/total is %v", sum, total)
	}
	if n, _ := spanOf(snap, obsv.SpanCompileStitch); n != int64(incremental) {
		t.Errorf("compile/stitch recorded %d times over %d incremental compiles", n, incremental)
	}
	if n, _ := spanOf(snap, obsv.SpanCompileLower); n != int64(calls) {
		t.Errorf("compile/lower recorded %d times over %d compiles", n, calls)
	}

	// One compile on its own collector: its Times is what it recorded.
	col = obsv.New()
	res := compileOne(PresetVIC.Options(rand.New(rand.NewSource(2))))
	snap = col.Snapshot()
	if _, d := spanOf(snap, obsv.SpanCompileTotal); d != res.Times.Total() {
		t.Errorf("compile/total %v, Times.Total %v", d, res.Times.Total())
	}
	for i, d := range []time.Duration{res.Times.Map, res.Times.Order, res.Times.Route, res.Times.Stitch, res.Times.Lower} {
		if _, got := spanOf(snap, stageSpans[i]); got != d || d <= 0 {
			t.Errorf("%s: span %v, Times %v", stageSpans[i], got, d)
		}
	}
}
