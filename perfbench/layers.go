package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obsv"
)

// layerMetrics derives the per-layer metrics from a traced phase (rec)
// and the untraced phase before it (plain). Times are milliseconds per op
// unless the name says otherwise; counts per op, per compile or per pass
// of the op list as named. A layer the workload never enters is absent
// from the map and prints as 0.
func layerMetrics(rec, plain *recorder, q quality, tree []node) map[string]float64 {
	ops := float64(len(rec.lat))
	perOp := func(d time.Duration) float64 { return ratio(ms(d), ops) }
	cnt := func(name string) float64 { return float64(rec.counters[name]) }
	sp := rec.dur
	passes := float64(rec.passes)
	compiles := float64(rec.obsSpans[obsv.SpanCompileTotal].count)
	requests := cnt(obsv.CntServeRequests)
	noisy, ideal := sp(obsv.SpanSimSampleNoisy), sp(obsv.SpanSimIdealRun)
	total := sp(obsv.SpanCompileTotal)
	named := sp(obsv.SpanCompileMap) + sp(obsv.SpanCompileOrder) + sp(obsv.SpanCompileRoute)
	flight := sp(obsv.SpanServeCompile)

	m := map[string]float64{
		"sim.noisy_ms":                   perOp(noisy),
		"sim.ideal_ms":                   perOp(ideal),
		"sim.replay_gates_per_op":        cnt(obsv.CntSimReplayGates) / ops,
		"sim.amp_ops_per_op":             cnt(obsv.CntSimAmpOps) / ops,
		"sim.ideal_reuse_frac":           ratio(cnt(obsv.CntSimIdealReuses), cnt(obsv.CntSimTrajectories)),
		"compile.total_ms":               perOp(total),
		"compile.map_ms":                 perOp(sp(obsv.SpanCompileMap)),
		"compile.order_ms":               perOp(sp(obsv.SpanCompileOrder)),
		"compile.route_ms":               perOp(sp(obsv.SpanCompileRoute)),
		"compile.unattributed_ms":        perOp(total - named),
		"router.score_evals_per_compile": ratio(cnt(obsv.CntRouterScoreEvals), compiles),
		"router.trials_per_compile":      ratio(cnt(obsv.CntRouterTrials), compiles),
		"router.swaps_per_compile":       ratio(cnt(obsv.CntCompileSwaps), compiles),
		"compile.binds_per_op":           cnt(obsv.CntCompileBinds) / ops,
		"compile.skeleton_compiles":      cnt(obsv.CntSkeletonCompiles) / passes,
		"compile.full_compiles":          (cnt(obsv.CntCompilations) - cnt(obsv.CntSkeletonCompiles)) / passes,
		"serve.full_hit_p50_ms":          percentile(sortedMS(rec.classLat[classFull]), 50),
		"serve.skel_hit_p50_ms":          percentile(sortedMS(rec.classLat[classSkel]), 50),
		"serve.cache_hit_ratio":          ratio(cnt(obsv.CntServeCacheHits), requests),
		"serve.skeleton_hit_ratio":       ratio(cnt(obsv.CntServeSkeletonHits), requests),
		"serve.evictions":                (cnt(obsv.CntServeCacheEvictions) + cnt(obsv.CntServeSkeletonEvictions)) / passes,
		"serve.alloc_kb_per_req":         ratio(float64(rec.alloc)/1024, requests),
		"serve.resp_kb":                  ratio(float64(rec.respBytes)/1024, requests),
		"serve.compile_flight_ms":        perOp(flight),
		"serve.request_other_ms":         perOp(sp(obsv.SpanServeRequest) - flight),
		"go.alloc_kb_per_op":             float64(rec.alloc) / 1024 / ops,
		"go.gc_per_kop":                  float64(rec.gcs) / ops * 1000,
		"trace.overhead_frac":            1 - ratio(rec.opsPerSec(), plain.opsPerSec()),
	}
	if _, ok := rec.spans["measure"]; ok {
		m["exp.measure_other_ms"] = perOp(sp("measure") - ideal - noisy)
	}
	if _, ok := rec.spans["run"]; ok {
		m["loop.eval_ms"] = perOp(sp("op"))
		m["loop.eval_other_ms"] = perOp(sp("op") - noisy)
		m["loop.optimizer_ms_per_eval"] = perOp(sp("run") - sp("op"))
		m["loop.evals_per_run"] = q.evalsPerRun
	}
	for _, n := range tree {
		if n.parent == "op" {
			m["op.other_ms"] = perOp(sp("op") - childSum(rec, n))
		}
	}
	return m
}

func childSum(rec *recorder, n node) time.Duration {
	var s time.Duration
	for _, c := range n.children {
		s += rec.dur(c)
	}
	return s
}

// attribution checks that every parent's children, with an explicit
// "other" for the remainder, cover the parent: the children may exceed it
// by at most 5%. It writes the breakdown as a markdown table to out and
// returns one error per parent that fails.
func attribution(w string, rec *recorder, tree []node, out io.Writer) []error {
	ops := float64(len(rec.lat))
	var errs []error
	fmt.Fprintf(out, "\n### %s (%d traced ops over %d passes)\n\n", w, len(rec.lat), rec.passes)
	fmt.Fprintf(out, "| span | child | ms/op | share of span |\n|---|---|---:|---:|\n")
	for _, n := range tree {
		parent := rec.dur(n.parent)
		if parent == 0 {
			continue
		}
		for _, c := range n.children {
			d := rec.dur(c)
			fmt.Fprintf(out, "| %s | %s | %.4f | %.1f%% |\n", n.parent, c, ms(d)/ops, 100*float64(d)/float64(parent))
		}
		other := parent - childSum(rec, n)
		fmt.Fprintf(out, "| %s | other | %.4f | %.1f%% |\n", n.parent, ms(other)/ops, 100*float64(other)/float64(parent))
		fmt.Fprintf(out, "| %s | **total** | %.4f | 100%% |\n", n.parent, ms(parent)/ops)
		if float64(other) < -0.05*float64(parent) {
			errs = append(errs, fmt.Errorf("attribution: children of %s cover %.1f%% of it", n.parent,
				100*float64(childSum(rec, n))/float64(parent)))
		}
	}
	return errs
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []metricDef{
	{"sim.noisy_ms", "ms"}, {"sim.ideal_ms", "ms"}, {"sim.replay_gates_per_op", "count"},
	{"sim.amp_ops_per_op", "count"}, {"sim.ideal_reuse_frac", "ratio"},
	{"exp.measure_other_ms", "ms"},
	{"loop.eval_ms", "ms"}, {"loop.eval_other_ms", "ms"}, {"loop.optimizer_ms_per_eval", "ms"}, {"loop.evals_per_run", "count"},
	{"compile.total_ms", "ms"}, {"compile.map_ms", "ms"}, {"compile.order_ms", "ms"}, {"compile.route_ms", "ms"},
	{"compile.unattributed_ms", "ms"},
	{"router.score_evals_per_compile", "count"}, {"router.trials_per_compile", "count"}, {"router.swaps_per_compile", "count"},
	{"compile.binds_per_op", "count"}, {"compile.skeleton_compiles", "count"}, {"compile.full_compiles", "count"},
	{"serve.full_hit_p50_ms", "ms"}, {"serve.skel_hit_p50_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"},
	{"serve.skeleton_hit_ratio", "ratio"}, {"serve.evictions", "count"}, {"serve.alloc_kb_per_req", "KiB"},
	{"serve.resp_kb", "KiB"}, {"serve.compile_flight_ms", "ms"}, {"serve.request_other_ms", "ms"},
	{"go.alloc_kb_per_op", "KiB"}, {"go.gc_per_kop", "count"},
	{"op.other_ms", "ms"}, {"trace.overhead_frac", "ratio"},
}

// layerTable renders per-layer metrics as a markdown table for humans.
func layerTable(m map[string]float64) string {
	var b strings.Builder
	b.WriteString("\n| per-layer metric | value |\n|---|---:|\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| %s | %.6g %s |\n", d.name, m[d.name], d.unit)
	}
	return b.String()
}
