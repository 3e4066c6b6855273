package exp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/qaoa"
)

// fixed structural angles: circuit depth/gate-count/time metrics do not
// depend on the angle values, so every structural experiment uses these.
var structuralParams = qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{0.2}}

// Workload identifies the two random-graph families of the evaluation.
type Workload int

const (
	// ErdosRenyi graphs G(n, p) with the given edge probability.
	ErdosRenyi Workload = iota
	// Regular graphs with a fixed number of edges per node.
	Regular
)

// String names the workload family.
func (w Workload) String() string {
	switch w {
	case ErdosRenyi:
		return "erdos-renyi"
	case Regular:
		return "regular"
	}
	return fmt.Sprintf("workload(%d)", int(w))
}

// instanceRNG derives an independent deterministic stream per (seed, index).
func instanceRNG(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(index)*7919 + 17))
}

// sampleGraph draws one workload graph.
func sampleGraph(w Workload, n int, param float64, rng *rand.Rand) (*graphs.Graph, error) {
	switch w {
	case ErdosRenyi:
		return graphs.ErdosRenyi(n, param, rng), nil
	case Regular:
		return graphs.RandomRegular(n, int(param), rng)
	default:
		return nil, fmt.Errorf("exp: unknown workload %d", w)
	}
}

// compileSample compiles one instance with a preset and returns its quality
// metrics. Success probability is measured on the native circuit when the
// device is calibrated, 1 otherwise.
func compileSample(ctx context.Context, g *graphs.Graph, dev *device.Device, preset compile.Preset, rng *rand.Rand, packing int) (metrics.Sample, *compile.Result, error) {
	prob := &qaoa.Problem{G: g, MaxCut: 1} // optimum unused for structural metrics
	opts := preset.Options(rng)
	opts.PackingLimit = packing
	opts.Obs = Collector()
	res, err := compile.CompileContext(ctx, prob, structuralParams, dev, opts)
	if err != nil {
		return metrics.Sample{}, nil, err
	}
	s := metrics.Sample{
		Depth:       res.Depth,
		GateCount:   res.GateCount,
		SwapCount:   res.SwapCount,
		CompileTime: res.Times.Total(),
		RouteTime:   res.Times.Route,
	}
	if dev.Calib != nil {
		s.SuccessProb = dev.SuccessProbability(res.Native)
	} else {
		s.SuccessProb = 1
	}
	return s, res, nil
}

// instanceRetries is the number of extra compile attempts (each on a fresh
// derived seed) before an instance×preset pair is recorded as failed.
const instanceRetries = 2

// runPoint compiles `instances` fresh workload graphs with every preset in
// `presets` and returns one aggregate per preset. The same graph instance is
// fed to all presets so ratios compare like with like. Instances run in
// parallel (each derives its own deterministic rng, so results are
// independent of scheduling); per-preset sample order is by instance index,
// keeping aggregates deterministic.
func runPoint(w Workload, n int, param float64, dev *device.Device, presets []compile.Preset, instances int, seed int64, packing int) (map[compile.Preset]metrics.Aggregate, error) {
	// The figure API (Fig7..Fig12) is deliberately deadline-free; this is
	// its single detachment point. Deadline-aware callers use runPointCtx.
	return runPointCtx(context.Background(), w, n, param, dev, presets, instances, seed, packing) //lint:allow ctxflow: boundary shim of the ctx-free figure API
}

// runPointCtx is runPoint with a deadline, and is resilient against faulty
// devices and pass bugs: a failing compilation is retried on fresh seeds,
// persistent failures are dropped from the aggregates and recorded in a
// PointReport (drained via DrainFaultReports) instead of discarding the
// whole sweep point, and a panicking instance goroutine is contained the
// same way. It errors only when the configuration itself is broken (unknown
// workload, impossible graph family) or no instance compiled at all.
func runPointCtx(ctx context.Context, w Workload, n int, param float64, dev *device.Device, presets []compile.Preset, instances int, seed int64, packing int) (map[compile.Preset]metrics.Aggregate, error) {
	collected := make(map[compile.Preset][]metrics.Sample, len(presets))
	valid := make(map[compile.Preset][]bool, len(presets))
	for _, p := range presets {
		collected[p] = make([]metrics.Sample, instances)
		valid[p] = make([]bool, instances)
	}
	fatals := make([]error, instances)
	failures := make([][]InstanceFailure, instances)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < instances; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			obs := Collector()
			span := obs.StartSpan(obsv.SpanExpInstance)
			defer span.End()
			obs.Inc(obsv.CntExpInstances)
			// Contain instance panics: one bad instance must not take down
			// the sweep (or the process).
			defer func() {
				if r := recover(); r != nil {
					failures[i] = append(failures[i], InstanceFailure{
						Instance: i, Preset: "-", Attempts: 1,
						Err: fmt.Sprintf("instance goroutine panicked: %v", r),
					})
				}
			}()
			rng := instanceRNG(seed, i)
			g, err := sampleGraph(w, n, param, rng)
			if err != nil {
				fatals[i] = err
				return
			}
			for _, preset := range presets {
				attempts := 0
				var lastErr error
				for retry := 0; retry <= instanceRetries; retry++ {
					attempts++
					// Retry 0 reproduces the historical stream; retries
					// re-seed so a seed-dependent failure isn't replayed.
					s, _, err := compileSample(ctx, g, dev, preset,
						instanceRNG(seed+int64(retry)*999_983, i*100+int(preset)), packing)
					if err == nil {
						collected[preset][i] = s
						valid[preset][i] = true
						lastErr = nil
						break
					}
					lastErr = err
					if ctx.Err() != nil {
						break // deadline spent; retrying cannot help
					}
				}
				obs.Add(obsv.CntExpRetries, int64(attempts-1))
				if lastErr != nil {
					obs.Inc(obsv.CntExpFailures)
					failures[i] = append(failures[i], InstanceFailure{
						Instance: i, Preset: preset.String(), Attempts: attempts,
						Err: lastErr.Error(),
					})
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range fatals {
		if err != nil {
			return nil, fmt.Errorf("exp: n=%d param=%v: %w", n, param, err)
		}
	}

	var allFailures []InstanceFailure
	for _, fs := range failures {
		allFailures = append(allFailures, fs...)
	}
	out := make(map[compile.Preset]metrics.Aggregate, len(presets))
	ok := 0
	for p, ss := range collected {
		kept := make([]metrics.Sample, 0, instances)
		for i, s := range ss {
			if valid[p][i] {
				kept = append(kept, s)
			}
		}
		ok += len(kept)
		out[p] = metrics.Collect(kept)
	}
	if len(allFailures) > 0 {
		recordReport(&PointReport{
			Device: dev.Name, Workload: w.String(), N: n, Param: param,
			Instances: instances, Presets: len(presets),
			Failed: len(allFailures), Failures: allFailures,
		})
	}
	if ok == 0 && instances > 0 && len(presets) > 0 {
		return nil, fmt.Errorf("exp: every compilation failed at n=%d param=%v on %s: %s",
			n, param, dev.Name, allFailures[0].Err)
	}
	return out, nil
}

// circuitFromTerms builds a bare CPhase block for layer counting.
func circuitFromTerms(n int, terms []compile.ZZTerm) *circuit.Circuit {
	c := circuit.New(n)
	for _, t := range terms {
		c.Append(circuit.NewCPhase(t.U, t.V, t.Theta))
	}
	return c
}
