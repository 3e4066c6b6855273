// Command qaoa-bench runs the reduced-scale Fig. 7/8/9 benchmark suite and
// writes the BENCH_<rev>.json metrics artifact: per-pass compile timings
// (raw and machine-normalized), SWAP counts, depth, gate counts, ARG and
// success probability per figure×preset record, plus the full counter and
// span dump of the run. With -baseline it additionally gates the fresh
// report against a committed one and exits 1 on any regression — the CI
// benchmark gate.
//
// Usage:
//
//	qaoa-bench -metrics-out BENCH_baseline.json -rev baseline
//	qaoa-bench -baseline BENCH_baseline.json -rev "$GITHUB_SHA"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/qaoac"
)

func main() {
	var (
		out       = flag.String("metrics-out", "", "write the metrics report to this path (default BENCH_<rev>.json)")
		rev       = flag.String("rev", "", "revision stamped into the report (default $GITHUB_SHA, then \"dev\")")
		baseline  = flag.String("baseline", "", "compare against this committed BENCH_*.json and exit 1 on regression")
		timeThr   = flag.Float64("time-threshold", 0, "allowed fractional compile-time regression (default 0.15)")
		countThr  = flag.Float64("count-threshold", 0, "allowed fractional swap/depth/sim-work-counter regression (default 0.15)")
		simThr    = flag.Float64("sim-threshold", 0, "allowed fractional sim wall-time regression (default 0.75; the tight gate is the deterministic sim work counters)")
		timeSlack = flag.Float64("time-slack", 0, "absolute compile-time grace in gated units (default 0.05, negative disables)")
		instances = flag.Int("instances", 0, "workload instances per record (default 4)")
		nodes     = flag.Int("nodes", 0, "problem graph size of the tokyo records (default 16)")
		seed      = flag.Int64("seed", 0, "suite random seed (default 11)")
		argShots  = flag.Int("arg-shots", 0, "measurement shots per ARG record (default 4096)")
		argTraj   = flag.Int("arg-trajectories", 0, "noisy trajectories per ARG record (default 256)")
		trials    = flag.Int("router-trials", 0, "stochastic routing trials per circuit (0/1 = single-shot; trials run in parallel across GOMAXPROCS with a deterministic result)")
		timeout   = flag.Duration("timeout", 10*time.Minute, "abort the suite after this long (0 = no deadline)")
		listen    = flag.String("listen", "", "serve live Prometheus metrics, /healthz and pprof on this address (e.g. :8080) while the suite runs")
		logOut    = flag.String("log", "", "write a JSON wide-event run summary line to this file (\"-\" for stderr, empty disables)")
	)
	flag.Parse()

	if err := run(*out, *rev, *baseline, *timeThr, *countThr, *simThr, *timeSlack, *instances, *nodes, *argShots, *argTraj, *trials, *seed, *timeout, *listen, *logOut); err != nil {
		fmt.Fprintln(os.Stderr, "qaoa-bench:", err)
		os.Exit(1)
	}
}

func run(out, rev, baseline string, timeThr, countThr, simThr, timeSlack float64, instances, nodes, argShots, argTraj, trials int, seed int64, timeout time.Duration, listen, logOut string) error {
	runStart := time.Now()
	rev = qaoac.RevisionFromEnv(rev)
	if out == "" {
		out = qaoac.DefaultBenchFilename(rev)
	}
	// SIGINT/SIGTERM cancel the suite context: RunBenchSuite stops at the
	// next record boundary and the metrics endpoint (if any) drains
	// gracefully on the way out instead of dying mid-scrape.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	cfg := qaoac.DefaultBenchSuiteConfig()
	if instances > 0 {
		cfg.Instances = instances
	}
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if argShots > 0 {
		cfg.ARGShots = argShots
	}
	if argTraj > 0 {
		cfg.ARGTrajectories = argTraj
	}
	cfg.RouterTrials = trials

	c := qaoac.NewCollector()
	qaoac.SetObservability(c)
	defer qaoac.SetObservability(nil)

	if listen != "" {
		// Progress: compilations finished so far (the suite size is not known
		// up front, so Total stays 0).
		progress := func() qaoac.ObsProgress {
			return qaoac.ObsProgress{Phase: "bench", Done: int(c.Counter(obsv.CntCompilations))}
		}
		obs, lerr := qaoac.ServeObservability(listen, c, progress)
		if lerr != nil {
			return lerr
		}
		obs.SetReady(true, "")
		defer func() {
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			obs.Shutdown(dctx)
		}()
		fmt.Fprintf(os.Stderr, "qaoa-bench: serving metrics on http://%s/metrics\n", obs.Addr())
	}

	rep := qaoac.NewBenchReport("qaoa-bench", rev, nil)
	rep.TimeUnitSec = qaoac.CalibrateTimeUnit()
	if err := qaoac.RunBenchSuite(ctx, cfg, rep); err != nil {
		return err
	}
	rep.AttachCollector(c)
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	// One canonical wide-event summary line per run — the same log/slog JSON
	// vocabulary qaoad emits per request, so one pipeline parses both.
	logW, closeLog, err := qaoac.OpenLogWriter(logOut)
	if err != nil {
		return err
	}
	defer closeLog()
	if logW != nil {
		ev := (&obsv.WideEvent{}).
			Str(obsv.FieldPhase, "bench").
			Int(obsv.FieldRequests, int64(len(rep.Benchmarks))).
			Float(obsv.FieldDurationMS, float64(time.Since(runStart).Microseconds())/1000.0).
			Str(obsv.FieldOutcome, "ok")
		ev.Emit(qaoac.NewWideLogger(logW), "run")
	}
	fmt.Printf("wrote %s: %d benchmarks, %d counters, time unit %.4fs\n",
		out, len(rep.Benchmarks), len(rep.Counters), rep.TimeUnitSec)
	for _, b := range rep.Benchmarks {
		fmt.Printf("  %-16s swaps=%6.1f depth=%6.1f gates=%7.1f compile=%.4fs sim=%.4fs arg=%5.2f%%\n",
			b.Name, b.Swaps, b.Depth, b.Gates, b.CompileSec, b.SimSec, b.ARGPct)
	}

	if baseline == "" {
		return nil
	}
	base, err := qaoac.ReadBenchReport(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	regs := qaoac.CompareBenchReports(base, rep, qaoac.BenchCompareOptions{
		TimeThreshold:  timeThr,
		CountThreshold: countThr,
		SimThreshold:   simThr,
		TimeSlack:      timeSlack,
	})
	if len(regs) == 0 {
		fmt.Printf("gate PASS: no regressions against %s (rev %s)\n", baseline, base.Revision)
		return nil
	}
	fmt.Fprintf(os.Stderr, "gate FAIL: %d regression(s) against %s (rev %s)\n", len(regs), baseline, base.Revision)
	for _, g := range regs {
		fmt.Fprintln(os.Stderr, "  "+g.String())
	}
	os.Exit(1)
	return nil
}
