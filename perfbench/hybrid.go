package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/loop"
	"repro/internal/obsv"
	"repro/internal/qaoa"
)

// hybrid-loop sizing: multi-start Nelder–Mead over the hardware evaluator
// (IC on melbourne, p=1, its default 1024 shots over 16 trajectories) on
// 12-node 3-regular graphs. One op is one objective evaluation; one step
// is one whole optimization run. The quality metrics average over the
// runs' circuits, and 40 of them keep their spread across seeds well
// inside the bounds; a pass of about 1000 evaluations outlasts a 20 s run,
// so a run times one pass.
const (
	hybridNodes    = 12
	hybridRuns     = 40 // optimization runs in the op list
	hybridRestarts = 2
	hybridMaxIter  = 5
	hybridWarmup   = 3 // warm-up evaluations on a separate instance
)

type hybridOp struct {
	prob              *qaoa.Problem
	evalSeed, optSeed int64
}

// hybridResult is what pass 0 saw for one run; later passes must repeat it.
type hybridResult struct {
	res          loop.Result
	depth, swaps int
	exact, arg   float64
}

type hybridSession struct {
	dev   *device.Device
	ops   []hybridOp
	first []hybridResult
	col   *obsv.Collector
}

// timedEvaluator times every objective evaluation of a run as one op.
type timedEvaluator struct {
	ev  loop.Evaluator
	rec *recorder
}

func (t *timedEvaluator) Levels() int { return t.ev.Levels() }

func (t *timedEvaluator) Expectation(p qaoa.Params) (float64, error) {
	t0 := t.rec.begin()
	v, err := t.ev.Expectation(p)
	if err != nil {
		t.rec.fail("evaluation: %v", err)
		return v, err
	}
	t.rec.end(t0)
	return v, nil
}

func bootHybrid(ctx context.Context, seed int64) (session, error) {
	s := &hybridSession{dev: device.Melbourne15()}
	rng := rand.New(rand.NewSource(seed))
	var warm *qaoa.Problem
	for len(s.ops) < hybridRuns {
		g, err := graphs.RandomRegular(hybridNodes, 3, rng)
		if err != nil {
			return nil, err
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			return nil, err
		}
		if warm == nil {
			warm = prob
			continue
		}
		s.ops = append(s.ops, hybridOp{prob: prob, evalSeed: rng.Int63(), optSeed: rng.Int63()})
	}
	s.first = make([]hybridResult, len(s.ops))
	ev := s.evaluator(ctx, warm, seed)
	params := qaoa.Params{Gamma: []float64{0.6}, Beta: []float64{0.3}}
	for i := 0; i < hybridWarmup; i++ {
		if _, err := ev.Expectation(params); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *hybridSession) evaluator(ctx context.Context, prob *qaoa.Problem, seed int64) *loop.HardwareEvaluator {
	return &loop.HardwareEvaluator{
		Prob: prob, Dev: s.dev, Preset: compile.PresetIC, P: 1,
		Rng: rand.New(rand.NewSource(seed)), Ctx: ctx, Obs: s.col,
	}
}

func (s *hybridSession) passLen() int { return len(s.ops) }

func (s *hybridSession) beginPass(_ context.Context, _ int, col *obsv.Collector) error {
	s.col = col
	return nil
}

func (s *hybridSession) step(ctx context.Context, pass, i int, rec *recorder) {
	op := s.ops[i]
	te := &timedEvaluator{ev: s.evaluator(ctx, op.prob, op.evalSeed), rec: rec}
	opts := loop.Options{Restarts: hybridRestarts, MaxIter: hybridMaxIter, Rng: rand.New(rand.NewSource(op.optSeed))}
	t0 := time.Now()
	rec.mark = t0
	res, err := loop.RunContext(ctx, te, op.prob, opts)
	rec.span("run", time.Since(t0))
	if err != nil {
		rec.fail("hybrid run %d: %v", i, err)
		return
	}
	if pass > 0 {
		if want := s.first[i].res; res.Expectation != want.Expectation || res.Evaluations != want.Evaluations ||
			res.Params.Gamma[0] != want.Params.Gamma[0] || res.Params.Beta[0] != want.Params.Beta[0] {
			rec.fail("hybrid run %d: pass %d returned %+v, pass 0 returned %+v", i, pass, res, want)
		}
		return
	}
	got, err := s.check(ctx, op, res)
	if err != nil {
		rec.fail("hybrid run %d: %v", i, err)
	}
	s.first[i] = got
}

// check recompiles the run's skeleton exactly as the evaluator did (the
// evaluator's rng feeds the skeleton compile first), binds the returned
// angles and checks the circuit, then scores the returned angles exactly.
func (s *hybridSession) check(ctx context.Context, op hybridOp, res loop.Result) (hybridResult, error) {
	got := hybridResult{res: res}
	ps, err := compile.ParamSpecFromMaxCut(op.prob, 1)
	if err != nil {
		return got, err
	}
	sk, err := compile.CompileSkeleton(ctx, ps, s.dev, compile.PresetIC.Options(rand.New(rand.NewSource(op.evalSeed))))
	if err != nil {
		return got, err
	}
	bound, err := sk.Bind(res.Params)
	if err != nil {
		return got, err
	}
	got.depth, got.swaps = bound.Depth, bound.SwapCount
	if err := checkNative(bound.Native, s.dev, op.prob.G.M(), 1, bound.SwapCount); err != nil {
		return got, err
	}
	if got.exact, err = exactRatio(op.prob, res.Params); err != nil {
		return got, err
	}
	rh := res.Expectation / float64(op.prob.MaxCut)
	if rh <= 0 || rh > 1 {
		return got, fmt.Errorf("loop returned ratio %v outside (0,1]", rh)
	}
	got.arg = qaoa.ARG(got.exact, rh)
	return got, nil
}

func (s *hybridSession) quality() quality {
	var q quality
	for _, r := range s.first {
		q.depthMean += float64(r.depth)
		q.swapsMean += float64(r.swaps)
		q.argPct += r.arg
		q.approxRatio += r.exact
		q.evalsPerRun += float64(r.res.Evaluations)
	}
	n := float64(len(s.first))
	return quality{depthMean: q.depthMean / n, swapsMean: q.swapsMean / n, argPct: q.argPct / n,
		approxRatio: q.approxRatio / n, evalsPerRun: q.evalsPerRun / n}
}

func (s *hybridSession) tree() []node {
	return []node{
		{"run", []string{"op"}},
		{"op", []string{obsv.SpanSimSampleNoisy, obsv.SpanCompileTotal}},
		{obsv.SpanCompileTotal, []string{obsv.SpanCompileMap, obsv.SpanCompileOrder, obsv.SpanCompileRoute}},
	}
}

func (s *hybridSession) close() {}
