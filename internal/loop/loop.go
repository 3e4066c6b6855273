// Package loop implements the quantum-classical hybrid optimization flow of
// QAOA (§II "QAOA Optimization Flow"): a classical optimizer iteratively
// updates the 2p circuit parameters to maximize the cost expectation, where
// each evaluation runs the parameterized circuit on a backend — either the
// noiseless state-vector simulator or the full compile-and-noisy-sample
// pipeline standing in for hardware.
package loop

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// Evaluator scores one parameter point — the "quantum" side of the loop.
type Evaluator interface {
	// Expectation returns ⟨C⟩ for the given angles.
	Expectation(params qaoa.Params) (float64, error)
	// Levels returns the number of QAOA levels the evaluator expects.
	Levels() int
}

// SimEvaluator evaluates exactly on the noiseless state-vector simulator.
type SimEvaluator struct {
	Prob *qaoa.Problem
	P    int
}

// Levels returns the configured level count.
func (e *SimEvaluator) Levels() int { return e.P }

// Expectation simulates the logical circuit and returns ⟨C⟩.
func (e *SimEvaluator) Expectation(params qaoa.Params) (float64, error) {
	return qaoa.Expectation(e.Prob, params)
}

// HardwareEvaluator evaluates by compiling for a device and sampling its
// noisy execution — the full in-the-loop flow the paper's §V-G runs on
// ibmq_16_melbourne, against our simulator substitute. Each evaluation is
// stochastic; use enough shots for stable gradients-free optimization.
//
// The circuit structure is angle-independent, so the evaluator compiles a
// routed skeleton once (on the first Expectation call) and binds each angle
// set into a reused buffer — the routing cost amortizes over the whole
// optimization instead of recurring per evaluation. The bound circuit is
// byte-identical to a full compile of the same angles.
//
// A HardwareEvaluator is NOT goroutine-safe: Expectation mutates the
// evaluator's lazily-initialized state (rng, noise model, skeleton, bind
// buffer). Share work across goroutines with one evaluator per goroutine.
// Configuration fields are frozen by the first Expectation call.
type HardwareEvaluator struct {
	Prob         *qaoa.Problem
	Dev          *device.Device
	Preset       compile.Preset
	P            int
	Shots        int
	Trajectories int
	Noise        *sim.NoiseModel // nil: derive from the device calibration
	// Rng drives compilation tie-breaking and noisy sampling. nil is usable:
	// a deterministic stream is derived from the problem and device, in the
	// zero-value-friendly style of Shots/Trajectories.
	Rng *rand.Rand
	// Ctx, when non-nil, bounds the one-time skeleton compilation.
	Ctx context.Context
	// Obs, when non-nil, times each evaluation (span loop/expectation),
	// counts them (loop/evaluations) and is forwarded to the skeleton
	// compilation.
	Obs *obsv.Collector

	// Lazily-initialized evaluation state (see ensure).
	noise *sim.NoiseModel
	skel  *compile.Skeleton
	buf   compile.BindBuffer
}

// Levels returns the configured level count.
func (e *HardwareEvaluator) Levels() int { return e.P }

// defaultSeed derives a deterministic seed from the problem structure, the
// device and the level count, so two evaluators over the same instance
// reproduce each other without explicit seeding.
func (e *HardwareEvaluator) defaultSeed() int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|p=%d|", e.Dev.Name, e.P)
	if e.Prob != nil && e.Prob.G != nil {
		fmt.Fprintf(h, "n=%d;", e.Prob.G.N())
		for _, edge := range e.Prob.G.Edges() {
			fmt.Fprintf(h, "%d-%d;", edge.U, edge.V)
		}
	}
	return int64(h.Sum64())
}

// ensure hoists the lazy initialization out of the evaluation path: the
// default-seeded rng, the derived noise model, and the one-time skeleton
// compile. It is idempotent and called by every Expectation, so a
// zero-value evaluator still works; calling it mutates the evaluator,
// which is why sharing one across goroutines is unsafe.
func (e *HardwareEvaluator) ensure() error {
	if e.Prob == nil || e.Dev == nil {
		return fmt.Errorf("loop: HardwareEvaluator needs Prob and Dev")
	}
	if e.Rng == nil {
		e.Rng = rand.New(rand.NewSource(e.defaultSeed()))
	}
	if e.noise == nil {
		e.noise = e.Noise
		if e.noise == nil {
			e.noise = sim.NoiseFromDevice(e.Dev)
		}
	}
	if e.skel == nil {
		ps, err := compile.ParamSpecFromMaxCut(e.Prob, e.Levels())
		if err != nil {
			return err
		}
		copts := e.Preset.Options(e.Rng)
		copts.Obs = e.Obs
		skel, err := compile.CompileSkeleton(e.ctx(), ps, e.Dev, copts)
		if err != nil {
			return err
		}
		e.skel = skel
	}
	return nil
}

func (e *HardwareEvaluator) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background() //lint:allow ctxflow: a zero-value evaluator runs unbounded by design
}

// Expectation binds the angles into the cached skeleton, noisily samples,
// and averages the cost.
func (e *HardwareEvaluator) Expectation(params qaoa.Params) (float64, error) {
	if err := e.ensure(); err != nil {
		return 0, err
	}
	span := e.Obs.StartSpan(obsv.SpanLoopExpectation)
	defer span.End()
	e.Obs.Inc(obsv.CntLoopEvaluations)
	res, err := e.skel.BindTo(&e.buf, params)
	if err != nil {
		return 0, err
	}
	shots := e.Shots
	if shots <= 0 {
		shots = 1024
	}
	traj := e.Trajectories
	if traj <= 0 {
		traj = 16
	}
	samples := sim.SampleNoisy(res.Circuit, e.noise, shots, traj, e.Rng)
	// The evaluator is called once per optimizer step over the same problem,
	// so building the dense cut table (cached on Prob) amortizes immediately
	// and Cost then scores each sample with one lookup instead of an edge
	// scan.
	e.Prob.CostTable()
	var sum float64
	for _, y := range samples {
		sum += e.Prob.Cost(res.ExtractLogical(y))
	}
	return sum / float64(len(samples)), nil
}

// Result is the outcome of one hybrid optimization run.
type Result struct {
	Params      qaoa.Params
	Expectation float64
	Evaluations int
}

// Options tunes Run.
type Options struct {
	// Restarts is the number of independent starting points (default 3;
	// the first start uses the analytic p=1 optimum when available).
	Restarts int
	// MaxIter bounds each Nelder–Mead descent (default 200).
	MaxIter int
	// Rng seeds the random restarts (required).
	Rng *rand.Rand
}

// Run maximizes the evaluator's expectation over the 2p angles with
// multi-start Nelder–Mead (derivative-free, as appropriate for sampled
// objectives), returning the best parameters found.
func Run(ev Evaluator, prob *qaoa.Problem, opts Options) (Result, error) {
	return RunContext(context.Background(), ev, prob, opts)
}

// RunContext is Run honoring a deadline/cancellation: the context is
// checked between restarts and between objective evaluations, and the best
// result found so far is abandoned in favor of a ctx-wrapped error when the
// context finishes first.
func RunContext(ctx context.Context, ev Evaluator, prob *qaoa.Problem, opts Options) (Result, error) {
	p := ev.Levels()
	if p <= 0 {
		return Result{}, fmt.Errorf("loop: evaluator reports %d levels", p)
	}
	if opts.Rng == nil {
		return Result{}, fmt.Errorf("loop: Options.Rng required")
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 3
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}

	evals := 0
	objective := func(x []float64) float64 {
		if ctx.Err() != nil {
			return math.Inf(1) // poison the descent; the restart loop reports
		}
		evals++
		v, err := ev.Expectation(vecToParams(x, p))
		if err != nil {
			return math.Inf(1)
		}
		return -v
	}

	best := Result{Expectation: math.Inf(-1)}
	for r := 0; r < restarts; r++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("loop: %w", err)
		}
		x0 := make([]float64, 2*p)
		if r == 0 && prob != nil {
			// Seed level angles from the analytic p=1 optimum.
			g0, b0, _, err := optimize.MaximizeP1(func(gm, bt float64) float64 {
				return qaoa.ExpectationP1Analytic(prob.G, gm, bt)
			}, 16)
			if err == nil {
				for l := 0; l < p; l++ {
					scale := float64(l+1) / float64(p)
					x0[l] = g0 * scale
					x0[p+l] = b0 * (1 - scale + 1/float64(2*p))
				}
			}
		} else {
			for i := 0; i < p; i++ {
				x0[i] = (opts.Rng.Float64() - 0.5) * 2 * math.Pi // gamma
				x0[p+i] = (opts.Rng.Float64() - 0.5) * math.Pi   // beta
			}
		}
		res, err := optimize.NelderMead(objective, x0, optimize.Options{MaxIter: maxIter, TolF: 1e-7})
		if err != nil {
			return Result{}, err
		}
		if v := -res.F; v > best.Expectation {
			best.Expectation = v
			best.Params = vecToParams(res.X, p)
		}
	}
	best.Evaluations = evals
	return best, nil
}

func vecToParams(x []float64, p int) qaoa.Params {
	params := qaoa.NewParams(p)
	copy(params.Gamma, x[:p])
	copy(params.Beta, x[p:2*p])
	return params
}
