package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// fig11b-arg sizing: the paper's 12-node ER(0.5) and 6-regular instances
// with analytic p=1 angles, four presets each, on calibrated melbourne.
// 2048 shots over 16 trajectories keep one op at tens of milliseconds.
const (
	fig11bNodes     = 12
	fig11bPerFamily = 8 // instances per graph family in the op list
	fig11bShots     = 2048
	fig11bTraj      = 16
	fig11bWarmup    = 2
)

var fig11bPresets = []compile.Preset{compile.PresetQAIM, compile.PresetIP, compile.PresetIC, compile.PresetVIC}

// instance is one prepared MaxCut problem: exact optimum and analytic p=1
// angles.
type instance struct {
	prob   *qaoa.Problem
	params qaoa.Params
}

// prepareInstance computes what Fig. 11(b) needs before compiling: the
// exact MaxCut optimum and the analytically optimized p=1 angles.
func prepareInstance(g *graphs.Graph) (instance, error) {
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		return instance{}, err
	}
	gamma, beta, _, err := optimize.MaximizeP1(func(gm, bt float64) float64 {
		return qaoa.ExpectationP1Analytic(g, gm, bt)
	}, 20)
	if err != nil {
		return instance{}, err
	}
	return instance{prob: prob, params: qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}}, nil
}

type fig11bOp struct {
	inst                     instance
	preset                   compile.Preset
	compileSeed, measureSeed int64
}

// fig11bResult is what pass 0 saw for one op; later passes must repeat it.
type fig11bResult struct {
	depth, swaps int
	arg, exact   float64
}

type fig11bSession struct {
	dev   *device.Device
	nm    *sim.NoiseModel
	ops   []fig11bOp
	first []fig11bResult
	col   *obsv.Collector
}

func bootFig11b(ctx context.Context, seed int64) (session, error) {
	s := &fig11bSession{dev: device.Melbourne15()}
	s.nm = sim.NoiseFromDevice(s.dev)
	rng := rand.New(rand.NewSource(seed))
	for len(s.ops) < 2*fig11bPerFamily*len(fig11bPresets) {
		var g *graphs.Graph
		if len(s.ops) < fig11bPerFamily*len(fig11bPresets) {
			g = graphs.ErdosRenyi(fig11bNodes, 0.5, rng)
		} else {
			var err error
			if g, err = graphs.RandomRegular(fig11bNodes, 6, rng); err != nil {
				return nil, err
			}
		}
		inst, err := prepareInstance(g)
		if err != nil {
			return nil, err
		}
		if inst.prob.MaxCut == 0 {
			continue
		}
		for _, p := range fig11bPresets {
			s.ops = append(s.ops, fig11bOp{inst: inst, preset: p, compileSeed: rng.Int63(), measureSeed: rng.Int63()})
		}
	}
	s.first = make([]fig11bResult, len(s.ops))
	// Warm-up: the first ops of the list, untimed.
	for i := 0; i < fig11bWarmup; i++ {
		if _, _, err := s.run(ctx, s.ops[i], nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *fig11bSession) passLen() int { return len(s.ops) }

func (s *fig11bSession) beginPass(_ context.Context, _ int, col *obsv.Collector) error {
	s.col = col
	return nil
}

// run compiles one (instance, preset) pair and measures its ARG.
func (s *fig11bSession) run(ctx context.Context, op fig11bOp, rec *recorder) (*compile.Result, float64, error) {
	opts := op.preset.Options(rand.New(rand.NewSource(op.compileSeed)))
	opts.Obs = s.col
	mrng := rand.New(rand.NewSource(op.measureSeed))
	var t0 time.Time
	if rec != nil {
		t0 = rec.begin()
	}
	res, err := compile.CompileContext(ctx, op.inst.prob, op.inst.params, s.dev, opts)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	arg, err := exp.MeasureARG(op.inst.prob, res, s.nm, fig11bShots, fig11bTraj, mrng)
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		t2 := time.Now()
		rec.end(t0)
		rec.span("compile", t1.Sub(t0))
		rec.span("measure", t2.Sub(t1))
	}
	return res, arg, nil
}

func (s *fig11bSession) step(ctx context.Context, pass, i int, rec *recorder) {
	op := s.ops[i]
	res, arg, err := s.run(ctx, op, rec)
	if err != nil {
		rec.fail("fig11b op %d: %v", i, err)
		return
	}
	got := fig11bResult{depth: res.Depth, swaps: res.SwapCount, arg: arg}
	if pass > 0 {
		if want := s.first[i]; got.depth != want.depth || got.swaps != want.swaps || got.arg != want.arg {
			rec.fail("fig11b op %d: pass %d gave depth %d swaps %d ARG %v, pass 0 gave %d %d %v",
				i, pass, got.depth, got.swaps, got.arg, want.depth, want.swaps, want.arg)
		}
		return
	}
	exact, err := exactRatio(op.inst.prob, op.inst.params)
	if err == nil {
		err = checkNative(res.Native, s.dev, op.inst.prob.G.M(), 1, res.SwapCount)
	}
	if err == nil {
		err = checkIdealRatio(op.inst.prob, res, op.measureSeed, fig11bShots, exact)
	}
	if err != nil {
		rec.fail("fig11b op %d (%s): %v", i, op.preset, err)
	}
	got.exact = exact
	s.first[i] = got
}

func (s *fig11bSession) quality() quality {
	var q quality
	for _, r := range s.first {
		q.depthMean += float64(r.depth)
		q.swapsMean += float64(r.swaps)
		q.argPct += r.arg
		q.approxRatio += r.exact
	}
	n := float64(len(s.first))
	return quality{depthMean: q.depthMean / n, swapsMean: q.swapsMean / n, argPct: q.argPct / n, approxRatio: q.approxRatio / n}
}

func (s *fig11bSession) tree() []node {
	return []node{
		{"op", []string{"compile", "measure"}},
		{"compile", []string{obsv.SpanCompileTotal}},
		{obsv.SpanCompileTotal, []string{obsv.SpanCompileMap, obsv.SpanCompileOrder, obsv.SpanCompileRoute}},
		{"measure", []string{obsv.SpanSimIdealRun, obsv.SpanSimSampleNoisy}},
	}
}

func (s *fig11bSession) close() {}
