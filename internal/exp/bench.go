package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// BenchConfig parameterizes the CI benchmark suite: reduced-scale versions
// of the Fig. 7/8/9 workloads whose structural results (swaps, depth, gate
// count) are fully deterministic under the fixed seed, so any drift in a
// BENCH_*.json record is a real behavioral change.
type BenchConfig struct {
	// Instances is the number of workload graphs per record (default 4).
	Instances int
	// Nodes is the graph size of the tokyo records (default 16; Fig. 8 uses
	// Nodes+2 to keep a size sweep flavor).
	Nodes int
	// Seed fixes every random stream of the suite (default 11).
	Seed int64
	// ARGNodes, ARGShots and ARGTrajectories size the reduced noisy
	// melbourne workload on which each record's ARG and success probability
	// are measured (defaults 10, 4096, 256 — enough trajectory averaging
	// that the recorded ARG is stable to well under a percentage point, so
	// the baseline gate sees signal, not sampling noise). ARGNodes must
	// stay small enough for the exact MaxCut optimum (≤ ~20).
	ARGNodes        int
	ARGShots        int
	ARGTrajectories int
	// RouterTrials routes every circuit that many times with randomized
	// tie-breaking and keeps the fewest-SWAP attempt (0 or 1 = single-shot
	// deterministic routing, the default). Trials run in parallel across
	// GOMAXPROCS workers with a schedule-independent result, so suite
	// records stay byte-identical across core counts.
	RouterTrials int
}

// DefaultBenchConfig returns the CI-scale configuration.
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{
		Instances:       4,
		Nodes:           16,
		Seed:            11,
		ARGNodes:        10,
		ARGShots:        4096,
		ARGTrajectories: 256,
	}
}

func (cfg BenchConfig) withDefaults() BenchConfig {
	def := DefaultBenchConfig()
	if cfg.Instances <= 0 {
		cfg.Instances = def.Instances
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = def.Nodes
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.ARGNodes <= 0 {
		cfg.ARGNodes = def.ARGNodes
	}
	if cfg.ARGShots <= 0 {
		cfg.ARGShots = def.ARGShots
	}
	if cfg.ARGTrajectories <= 0 {
		cfg.ARGTrajectories = def.ARGTrajectories
	}
	return cfg
}

// benchCase is one figure-flavored workload family of the suite.
type benchCase struct {
	id      string
	w       Workload
	n       int
	param   float64
	presets []compile.Preset
}

func benchCases(cfg BenchConfig) []benchCase {
	mapping := []compile.Preset{compile.PresetNaive, compile.PresetGreedyV, compile.PresetQAIM}
	ordering := []compile.Preset{compile.PresetQAIM, compile.PresetIP, compile.PresetIC}
	return []benchCase{
		{id: "fig7-er", w: ErdosRenyi, n: cfg.Nodes, param: 0.5, presets: mapping},
		{id: "fig7-reg", w: Regular, n: cfg.Nodes, param: 4, presets: mapping},
		{id: "fig8", w: Regular, n: cfg.Nodes + 2, param: 3, presets: mapping},
		{id: "fig9", w: Regular, n: cfg.Nodes, param: 4, presets: ordering},
	}
}

// RunBenchSuite runs the reduced Fig. 7/8/9 benchmarks on ibmq_20_tokyo and
// appends one record per figure×preset to rep, named "<fig>/<preset>". Each
// record aggregates cfg.Instances compiled instances (mean per-pass times,
// swaps, depth, gates) and carries an ARG and success probability measured
// on a reduced calibrated-melbourne instance of the same workload family.
// Instances run sequentially so the report's counters are deterministic;
// compilation forwards the collector installed via SetCollector.
func RunBenchSuite(ctx context.Context, cfg BenchConfig, rep *obsv.Report) error {
	cfg = cfg.withDefaults()
	tokyo := device.Tokyo20()
	tokyo.Obs = Collector()
	for _, bc := range benchCases(cfg) {
		// Shared instance graphs: every preset of the case compiles the same
		// set, so records compare like with like.
		gs := make([]*graphs.Graph, cfg.Instances)
		for i := range gs {
			g, err := sampleGraph(bc.w, bc.n, bc.param, instanceRNG(cfg.Seed, i))
			if err != nil {
				return fmt.Errorf("exp: bench %s: %w", bc.id, err)
			}
			gs[i] = g
		}
		for _, preset := range bc.presets {
			rec, err := runBenchRecord(ctx, bc, preset, gs, tokyo, cfg)
			if err != nil {
				return err
			}
			if rep.TimeUnitSec > 0 {
				rec.CompileUnits = rec.CompileSec / rep.TimeUnitSec
				rec.SimUnits = rec.SimSec / rep.TimeUnitSec
			}
			rep.AddBenchmark(rec)
		}
	}
	return nil
}

// runBenchRecord compiles every instance of one figure×preset point and
// aggregates the record.
func runBenchRecord(ctx context.Context, bc benchCase, preset compile.Preset, gs []*graphs.Graph, tokyo *device.Device, cfg BenchConfig) (obsv.Benchmark, error) {
	rec := obsv.Benchmark{
		Name:      bc.id + "/" + preset.String(),
		Instances: len(gs),
	}
	for i, g := range gs {
		prob := &qaoa.Problem{G: g, MaxCut: 1} // optimum unused for structural metrics
		opts := preset.Options(instanceRNG(cfg.Seed+int64(i)*101, 1000+int(preset)))
		opts.RouterTrials = cfg.RouterTrials
		opts.Obs = Collector()
		res, err := compile.CompileContext(ctx, prob, structuralParams, tokyo, opts)
		if err != nil {
			return rec, fmt.Errorf("exp: bench %s/%v instance %d: %w", bc.id, preset, i, err)
		}
		rec.CompileSec += res.Times.Total().Seconds()
		rec.MapSec += res.Times.Map.Seconds()
		rec.OrderSec += res.Times.Order.Seconds()
		rec.RouteSec += res.Times.Route.Seconds()
		rec.Swaps += float64(res.SwapCount)
		rec.Depth += float64(res.Depth)
		rec.Gates += float64(res.GateCount)
	}
	n := float64(len(gs))
	rec.CompileSec /= n
	rec.MapSec /= n
	rec.OrderSec /= n
	rec.RouteSec /= n
	rec.Swaps /= n
	rec.Depth /= n
	rec.Gates /= n

	arg, succ, simSec, err := benchARG(ctx, bc, preset, cfg)
	if err != nil {
		return rec, err
	}
	rec.ARGPct = arg
	rec.SuccessProb = succ
	rec.SimSec = simSec
	return rec, nil
}

// benchARG measures the record's ARG and success probability on a reduced
// instance of the same workload family, compiled for the calibrated
// ibmq_16_melbourne (the tokyo benchmarks carry no calibration, so noisy
// execution is measured on the smaller device instead). simSec is the
// wall-clock time of the simulation portion (ideal run + sampling + noisy
// trajectories) — the record's sim_sec field.
func benchARG(ctx context.Context, bc benchCase, preset compile.Preset, cfg BenchConfig) (arg, succ, simSec float64, err error) {
	rng := instanceRNG(cfg.Seed+7777, int(preset))
	param := bc.param
	if bc.w == Regular && param >= float64(cfg.ARGNodes) {
		param = float64(cfg.ARGNodes - 1)
	}
	g, err := sampleGraph(bc.w, cfg.ARGNodes, param, rng)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("exp: bench %s arg graph: %w", bc.id, err)
	}
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("exp: bench %s arg optimum: %w", bc.id, err)
	}
	mel := device.Melbourne15()
	mel.Obs = Collector()
	opts := preset.Options(rng)
	opts.RouterTrials = cfg.RouterTrials
	opts.Obs = Collector()
	res, err := compile.CompileContext(ctx, prob, structuralParams, mel, opts)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("exp: bench %s arg compile: %w", bc.id, err)
	}
	simStart := time.Now() //lint:allow determinism: measured sim wall time, gated with slack
	arg, err = MeasureARG(prob, res, sim.NoiseFromDevice(mel), cfg.ARGShots, cfg.ARGTrajectories, rng)
	simSec = time.Since(simStart).Seconds() //lint:allow determinism: measured sim wall time, gated with slack
	if err != nil {
		return 0, 0, 0, fmt.Errorf("exp: bench %s arg measure: %w", bc.id, err)
	}
	return arg, mel.SuccessProbability(res.Native), simSec, nil
}

// CalibrateTimeUnit times a fixed CPU-bound workload (Floyd–Warshall over
// a deterministic 160-node graph) and returns its duration in seconds.
// Stored as Report.TimeUnitSec, it converts wall-clock compile and sim
// times into machine-normalized units so regression gates stay meaningful
// between hosts of different speeds. The unit is three times the minimum
// of five repetitions: the minimum is robust against scheduling noise,
// which would otherwise inflate the unit and silently loosen every
// normalized gate on that run.
func CalibrateTimeUnit() float64 {
	const n = 160
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		if j := (i*7 + 3) % n; j != i && !g.HasEdge(i, j) {
			g.MustAddEdge(i, j)
		}
	}
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now() //lint:allow determinism: machine-speed calibration is wall-clock by design
		graphs.FloydWarshall(g, false)
		if d := time.Since(start).Seconds(); d < best { //lint:allow determinism: machine-speed calibration is wall-clock by design
			best = d
		}
	}
	return 3 * best
}
