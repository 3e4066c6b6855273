// Command qaoa-sim runs the full quantum-classical QAOA optimization loop
// on a small MaxCut instance using the state-vector simulator: it finds
// optimal p=1 angles, compiles the circuit for a device, and reports ideal
// vs noisy approximation ratios and the resulting ARG.
//
// Usage:
//
//	qaoa-sim -nodes 10 -degree 3 -method IC -shots 8192
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/qaoac"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 10, "problem graph size (≤ 15 for melbourne)")
		degree  = flag.Int("degree", 3, "edges per node")
		method  = flag.String("method", "IC", "compilation method: NAIVE | GreedyV | QAIM | IP | IC | VIC")
		shots   = flag.Int("shots", 8192, "measurement shots")
		traj    = flag.Int("traj", 32, "noise trajectories")
		seed    = flag.Int64("seed", 1, "random seed")
		mit     = flag.Bool("mitigate", false, "also report ARG after readout-error mitigation")
		timeout = flag.Duration("timeout", 0, "abort compilation after this long (0 = no deadline)")
		metrics = flag.String("metrics-out", "", "write a BENCH_*.json metrics report of the run to this path")
		rev     = flag.String("rev", "", "revision stamped into the metrics report (default $GITHUB_SHA, then \"dev\")")
	)
	flag.Parse()
	if *shots < 1 || *traj < 1 {
		fmt.Fprintln(os.Stderr, "qaoa-sim: -shots and -traj must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*nodes, *degree, *method, *shots, *traj, *seed, *mit, *timeout, *metrics, *rev); err != nil {
		fmt.Fprintln(os.Stderr, "qaoa-sim:", err)
		os.Exit(1)
	}
}

func run(nodes, degree int, method string, shots, traj int, seed int64, mitigate bool, timeout time.Duration, metricsOut, rev string) error {
	var col *qaoac.Collector
	if metricsOut != "" {
		col = qaoac.NewCollector()
		qaoac.SetObservability(col)
		defer qaoac.SetObservability(nil)
	}
	rng := rand.New(rand.NewSource(seed))
	g, err := qaoac.RandomRegular(nodes, degree, rng)
	if err != nil {
		return err
	}
	prob, err := qaoac.NewMaxCut(g)
	if err != nil {
		return err
	}
	fmt.Printf("problem:   %d-node %d-regular MaxCut, optimum = %d\n", nodes, degree, prob.MaxCut)

	gamma, beta, expC, err := qaoac.OptimizeP1(g)
	if err != nil {
		return err
	}
	fmt.Printf("optimum angles: γ = %.4f, β = %.4f  (⟨C⟩ = %.4f, ratio %.4f)\n",
		gamma, beta, expC, expC/float64(prob.MaxCut))

	var preset qaoac.Preset
	found := false
	for _, p := range qaoac.Presets {
		if strings.EqualFold(p.String(), method) {
			preset, found = p, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown method %q", method)
	}

	dev := qaoac.Melbourne15()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	copts := preset.Options(rng)
	copts.Obs = col
	dev.Obs = col
	res, err := qaoac.CompileContext(ctx, prob, qaoac.P1Params(gamma, beta), dev, copts)
	if err != nil {
		return err
	}
	fmt.Printf("compiled (%s): depth %d, gates %d, swaps %d, success prob %.5f\n",
		preset, res.Depth, res.GateCount, res.SwapCount, dev.SuccessProbability(res.Native))

	extract := func(ys []uint64) []uint64 {
		xs := make([]uint64, len(ys))
		for i, y := range ys {
			xs[i] = res.ExtractLogical(y)
		}
		return xs
	}
	// One executor serves both sample sets. Noise goes first, so its ideal
	// run reaches every trajectory's checkpoint on its way to the end.
	ex := qaoac.NewExecutor(res.Circuit)
	noisyPhysical := ex.SampleNoisy(qaoac.NoiseFromDevice(dev), shots, traj, rng)
	noisy := extract(noisyPhysical)
	rh, err := qaoac.ApproximationRatio(prob, noisy)
	if err != nil {
		return err
	}
	ideal := extract(ex.SampleIdeal(rng, shots))
	r0, err := qaoac.ApproximationRatio(prob, ideal)
	if err != nil {
		return err
	}
	best := 0.0
	for _, x := range ideal {
		if c := prob.Cost(x); c > best {
			best = c
		}
	}
	argPct := qaoac.ARG(r0, rh)
	fmt.Printf("ideal approximation ratio:  r0 = %.4f (best sampled cut %d/%d)\n", r0, int(best), prob.MaxCut)
	fmt.Printf("noisy approximation ratio:  rh = %.4f\n", rh)
	fmt.Printf("approximation ratio gap:    ARG = %.2f%%\n", argPct)

	if mitigate {
		// Mitigate the same noisy sample set so the comparison is paired.
		counts := qaoac.SampleHistogram(noisyPhysical)
		quasi, err := qaoac.MitigateReadout(counts, dev.NQubits(), dev.Calib.ReadoutError)
		if err != nil {
			return err
		}
		meanCut := qaoac.ExpectationFromDistribution(quasi, func(y uint64) float64 {
			return prob.Cost(res.ExtractLogical(y))
		})
		rm := meanCut / float64(prob.MaxCut)
		fmt.Printf("mitigated ratio:            rm = %.4f  (ARG %.2f%%)\n", rm, qaoac.ARG(r0, rm))
	}
	if metricsOut != "" {
		rep := qaoac.NewBenchReport("qaoa-sim", qaoac.RevisionFromEnv(rev), col)
		rec := qaoac.BenchRecordOf("qaoa-sim/"+preset.String(), res)
		rec.ARGPct, rec.SuccessProb = argPct, dev.SuccessProbability(res.Native)
		rep.AddBenchmark(rec)
		if err := rep.WriteFile(metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	return nil
}
