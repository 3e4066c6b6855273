// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in a closed loop with a single client, checks every output, and
// prints its metrics as one JSON object on the last line of standard
// output, with a human-readable report on standard error. Run it from the
// root of a checkout:
//
//	bash perfbench/run.sh --workload fig11b-arg --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 measures the workload
// untraced and then traced, with the program's own collectors on and the
// benchmark's spans around the public calls, and prints the per-layer
// metrics and the breakdown table. --steady k reruns the workload k times
// in subprocesses and prints every metric's median, quartiles and spread.
//
// The exit code is non-zero when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/sim"
)

// workload is one named, seeded op list with the boot that precedes it.
type workload struct {
	name string
	boot func(ctx context.Context, seed int64) (session, error)
	// tailP is the percentile op_tail_ms reports. Each leaves at least ten
	// of a pass's ops beyond it, and none sits so far out that the
	// preemptions a shared host deals a few of the ops decide it.
	tailP float64
	// stepTail marks a workload whose every step repeats one circuit: its
	// tail is taken over the step medians (see recorder.stepMedians), so
	// over circuits rather than over the jitter between repeats of one.
	stepTail bool
}

var workloads = []workload{
	{"fig11b-arg", bootFig11b, 80, false},
	{"hybrid-loop", bootHybrid, 90, true},
	// p95 sits within the one-in-five skeleton hits, clear of the p80 seam
	// between the two request classes.
	{"qaoad-hot", func(ctx context.Context, seed int64) (session, error) { return bootQaoad(ctx, seed, false) }, 95, false},
	{"qaoad-cold", func(ctx context.Context, seed int64) (session, error) { return bootQaoad(ctx, seed, true) }, 99.5, false},
}

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"},
	{"heap_live_mb", "MB"}, {"depth_mean", "count"}, {"swaps_mean", "count"},
	{"arg_pct", "%"}, {"approx_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig11b-arg | hybrid-loop | qaoad-hot | qaoad-cold")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same op list")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds (whole passes over the op list)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	steadyK := flag.Int("steady", 0, "rerun the workload this many times in subprocesses and report each metric's spread")
	seedStep := flag.Int64("seed-step", 1, "with -steady, the seed increment between reruns (0 repeats one seed)")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *steadyK > 0 {
		if err := steady(*steadyK, *name, *seed, *seedStep, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run boots the workload, measures it and returns the result line.
func run(ctx context.Context, w workload, seed int64, budget time.Duration, traced bool) (result, error) {
	s, setups, err := boot(ctx, w, seed)
	if err != nil {
		return result{}, err
	}
	defer s.close()

	if !traced {
		rec := measure(ctx, s, budget, nil, 0)
		q := s.quality()
		heap := heapLiveMB()
		opsPerPass := len(rec.lat) / max(rec.passes, 1)
		tailP, tailLat, tailOf := w.tailP, rec.lat, "ops"
		if w.stepTail {
			tailLat, tailOf = rec.stepMedians(), "ops at their step's median"
		}
		m := map[string]float64{
			"setup_s": medianSeconds(setups), "ops_per_s": rec.opsPerSec(),
			"op_p50_ms":    rec.perPass(func(lo, hi int) float64 { return percentile(sortedMS(rec.lat[lo:hi]), 50) }),
			"op_tail_ms":   rec.perPass(func(lo, hi int) float64 { return percentile(sortedMS(tailLat[lo:hi]), tailP) }),
			"heap_live_mb": heap,
			"depth_mean":   q.depthMean, "swaps_mean": q.swapsMean, "arg_pct": q.argPct, "approx_ratio": q.approxRatio,
		}
		fmt.Fprintf(os.Stderr, "set-up times: %v\n", setups)
		fmt.Fprintf(os.Stderr, "%s seed %d: %d ops over %d passes, fail_frac %g; timings are medians over passes, op_tail_ms is p%g of the %s, %d of each pass's %d ops beyond it\n",
			w.name, seed, rec.attempted, rec.passes, ratio(float64(rec.failed), float64(rec.attempted)), tailP, tailOf,
			opsPerPass-rank(opsPerPass, tailP), opsPerPass)
		return finish(rec.attempted, rec.failed, rec.errs, m, endToEnd), nil
	}

	// Traced run: half the budget untraced, then half traced, each in
	// whole passes; pass 0 (with the full output checks) is untraced.
	plain := measure(ctx, s, budget/2, nil, 0)
	col := obsv.New()
	sim.SetCollector(col)
	rec := measure(ctx, s, budget/2, col, plain.passes)
	sim.SetCollector(nil)
	m := layerMetrics(rec, plain, s.quality(), s.tree())
	errs := append(plain.errs, rec.errs...)
	failed := plain.failed + rec.failed
	for _, err := range attribution(w.name, rec, s.tree(), os.Stderr) {
		errs = append(errs, err.Error())
		failed++
	}
	fmt.Fprint(os.Stderr, layerTable(m))
	fmt.Fprintf(os.Stderr, "\ntracing overhead: traced %.4g ops/s against untraced %.4g ops/s\n", rec.opsPerSec(), plain.opsPerSec())
	return finish(plain.attempted+rec.attempted, failed, errs, m, perLayer), nil
}

func finish(attempted, failed int, errs []string, m map[string]float64, defs []metricDef) result {
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	return res
}

// steady reruns the workload k times as subprocesses, each a fresh
// process as in a normal run, and prints each metric's median, quartiles
// and relative spread (interquartile distance over the median).
func steady(k int, name string, seed, step int64, seconds, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)*step
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("rerun %d (seed %d): %w", i, s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("rerun %d: %w", i, err)
		}
		for n, v := range res.Metrics {
			values[n] = append(values[n], v.Value)
			units[n] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "rerun %d/%d (seed %d) done\n", i+1, k, s)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s, %d reruns, seeds %d + i·%d, %d s each\n\n", name, k, seed, step, seconds)
	fmt.Printf("| metric | unit | median | q1 | q3 | spread |\n|---|---|---:|---:|---:|---:|\n")
	for _, n := range names {
		q1, q2, q3 := quartiles(values[n])
		fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.2f%% |\n", n, units[n], q2, q1, q3, 100*ratio(q3-q1, q2))
	}
	return nil
}
