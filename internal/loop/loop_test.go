package loop

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

func triangleProblem(t *testing.T) *qaoa.Problem {
	t.Helper()
	g := graphs.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	p, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The p=1 loop on the exact simulator must recover (within tolerance) the
// analytic optimum.
func TestRunP1MatchesAnalytic(t *testing.T) {
	prob := triangleProblem(t)
	ev := &SimEvaluator{Prob: prob, P: 1}
	res, err := Run(ev, prob, Options{Rng: rand.New(rand.NewSource(1)), Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, _, want, err := optimize.MaximizeP1(func(gm, bt float64) float64 {
		return qaoa.ExpectationP1Analytic(prob.G, gm, bt)
	}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expectation < want-0.01 {
		t.Errorf("loop ⟨C⟩ = %v, analytic optimum %v", res.Expectation, want)
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
	if res.Params.P() != 1 {
		t.Errorf("params P = %d", res.Params.P())
	}
}

// A fundamental QAOA property: the p=2 optimum is at least the p=1 optimum
// (extra levels never hurt at the optimum), and strictly better on the
// 5-cycle, where p=1 cuts at most 3/4 of the edges (⟨C⟩ = 3.75 < Cmax = 4,
// the ring-of-disagrees bound).
func TestRunP2BeatsP1(t *testing.T) {
	g := graphs.New(5)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, (i+1)%5)
	}
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(&SimEvaluator{Prob: prob, P: 1}, prob,
		Options{Rng: rand.New(rand.NewSource(2)), Restarts: 3, MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Expectation-3.75) > 0.01 {
		t.Errorf("C5 p=1 optimum = %v, theory says 3.75 (¾ of 5 edges)", r1.Expectation)
	}
	r2, err := Run(&SimEvaluator{Prob: prob, P: 2}, prob,
		Options{Rng: rand.New(rand.NewSource(3)), Restarts: 6, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Expectation < r1.Expectation-1e-6 {
		t.Errorf("p=2 optimum %v below p=1 %v", r2.Expectation, r1.Expectation)
	}
	if r2.Expectation < r1.Expectation+0.05 {
		t.Errorf("p=2 gave no improvement on C5: %v vs %v", r2.Expectation, r1.Expectation)
	}
}

func TestRunValidation(t *testing.T) {
	prob := triangleProblem(t)
	if _, err := Run(&SimEvaluator{Prob: prob, P: 0}, prob, Options{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("zero levels accepted")
	}
	if _, err := Run(&SimEvaluator{Prob: prob, P: 1}, prob, Options{}); err == nil {
		t.Error("missing rng accepted")
	}
}

// The hardware-in-the-loop evaluator must run end to end and report an
// expectation in the sane range, lower than the noiseless one at the same
// angles.
func TestHardwareEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graphs.MustRandomRegular(8, 3, rng)
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta, ideal, err := optimize.MaximizeP1(func(gm, bt float64) float64 {
		return qaoa.ExpectationP1Analytic(g, gm, bt)
	}, 20)
	if err != nil {
		t.Fatal(err)
	}
	hw := &HardwareEvaluator{
		Prob:   prob,
		Dev:    device.Melbourne15(),
		Preset: compile.PresetVIC,
		P:      1,
		Shots:  4096, Trajectories: 24,
		Rng: rand.New(rand.NewSource(5)),
	}
	params := qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
	noisy, err := hw.Expectation(params)
	if err != nil {
		t.Fatal(err)
	}
	if noisy <= 0 || noisy >= float64(g.M()) {
		t.Errorf("noisy ⟨C⟩ = %v outside (0, m)", noisy)
	}
	if noisy >= ideal {
		t.Errorf("noisy expectation %v not below ideal %v", noisy, ideal)
	}
	// Noise pulls toward the uniform mean m/2 but should not cross it by
	// much at melbourne error rates.
	if noisy < float64(g.M())/2-0.5 {
		t.Errorf("noisy expectation %v implausibly far below uniform %v", noisy, float64(g.M())/2)
	}
	if hw.Levels() != 1 {
		t.Error("Levels() wrong")
	}
}

func TestHardwareEvaluatorNeedsProbAndDev(t *testing.T) {
	hw := &HardwareEvaluator{P: 1}
	if _, err := hw.Expectation(qaoa.Params{Gamma: []float64{0.1}, Beta: []float64{0.1}}); err == nil {
		t.Error("missing problem/device accepted")
	}
}

// A nil Rng is usable: the evaluator derives a deterministic stream from the
// problem and device, so two zero-value evaluators agree exactly.
func TestHardwareEvaluatorNilRngDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graphs.MustRandomRegular(8, 3, rng)
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	params := qaoa.Params{Gamma: []float64{0.6}, Beta: []float64{0.25}}
	eval := func() float64 {
		hw := &HardwareEvaluator{
			Prob:   prob,
			Dev:    device.Melbourne15(),
			Preset: compile.PresetIC,
			P:      1,
			Shots:  512, Trajectories: 8,
		}
		v, err := hw.Expectation(params)
		if err != nil {
			t.Fatal(err)
		}
		if hw.Rng == nil {
			t.Fatal("default rng not installed")
		}
		return v
	}
	if a, b := eval(), eval(); a != b {
		t.Errorf("nil-Rng evaluations differ: %v vs %v", a, b)
	}
}

// The context-honoring loop aborts with a wrapped ctx error.
func TestRunContextCancelled(t *testing.T) {
	prob := triangleProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, &SimEvaluator{Prob: prob, P: 1}, prob,
		Options{Rng: rand.New(rand.NewSource(1))})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestVecToParams(t *testing.T) {
	p := vecToParams([]float64{1, 2, 3, 4}, 2)
	if p.Gamma[0] != 1 || p.Gamma[1] != 2 || p.Beta[0] != 3 || p.Beta[1] != 4 {
		t.Errorf("vecToParams = %+v", p)
	}
}

// Optimizing through the noisy hardware evaluator end to end (small budget)
// must land at an expectation above the uniform baseline — the hybrid loop
// works even with sampling noise.
func TestRunHardwareLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy loop is slow")
	}
	rng := rand.New(rand.NewSource(6))
	g := graphs.MustRandomRegular(6, 3, rng)
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	hw := &HardwareEvaluator{
		Prob:   prob,
		Dev:    device.Melbourne15(),
		Preset: compile.PresetIC,
		P:      1,
		Shots:  1024, Trajectories: 8,
		Rng: rand.New(rand.NewSource(7)),
	}
	res, err := Run(hw, prob, Options{Rng: rand.New(rand.NewSource(8)), Restarts: 2, MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	uniform := float64(g.M()) / 2
	if res.Expectation <= uniform {
		t.Errorf("hardware-loop optimum %v not above uniform %v", res.Expectation, uniform)
	}
}

func TestRunRespectsEvaluatorErrors(t *testing.T) {
	prob := triangleProblem(t)
	// An evaluator with an impossible level count inside params.
	ev := &erroringEvaluator{}
	res, err := Run(ev, prob, Options{Rng: rand.New(rand.NewSource(9)), Restarts: 1, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	// All evaluations failed → objective stuck at +Inf → expectation -Inf.
	if !math.IsInf(res.Expectation, -1) {
		t.Errorf("expected -Inf expectation when every evaluation errors, got %v", res.Expectation)
	}
}

type erroringEvaluator struct{}

func (e *erroringEvaluator) Levels() int { return 1 }
func (e *erroringEvaluator) Expectation(qaoa.Params) (float64, error) {
	return 0, errFake
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

// The evaluator's first Expectation must equal a full concrete compile of
// the same angles sampled from an identically seeded rng, bit for bit: the
// skeleton compile consumes the rng exactly as CompileContext would, and
// the bound circuit is byte-identical, so the noisy sample streams
// coincide.
func TestHardwareEvaluatorBindMatchesFullCompileFirstCall(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(12)))
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	params := qaoa.Params{Gamma: []float64{0.8}, Beta: []float64{0.3}}
	const seed, shots, traj = 21, 256, 4
	dev := device.Melbourne15()
	hw := &HardwareEvaluator{
		Prob: prob, Dev: dev, Preset: compile.PresetIC,
		P: 1, Shots: shots, Trajectories: traj, Rng: rand.New(rand.NewSource(seed)),
	}
	got, err := hw.Expectation(params)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	res, err := compile.CompileContext(context.Background(), prob, params, dev, compile.PresetIC.Options(rng))
	if err != nil {
		t.Fatal(err)
	}
	samples := sim.SampleNoisy(res.Circuit, sim.NoiseFromDevice(dev), shots, traj, rng)
	var sum float64
	for _, y := range samples {
		sum += prob.Cost(res.ExtractLogical(y))
	}
	if want := sum / float64(len(samples)); got != want {
		t.Fatalf("first evaluation differs: bind %v, full compile %v", got, want)
	}
}

// Two zero-Rng skeleton-mode evaluators over the same instance must agree
// across a sequence of evaluations (the deterministic-stream contract).
func TestHardwareEvaluatorSkeletonDeterministic(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(13)))
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	a := &HardwareEvaluator{Prob: prob, Dev: device.Melbourne15(), Preset: compile.PresetIC, P: 1, Shots: 128, Trajectories: 4}
	b := &HardwareEvaluator{Prob: prob, Dev: device.Melbourne15(), Preset: compile.PresetIC, P: 1, Shots: 128, Trajectories: 4}
	angles := []qaoa.Params{
		{Gamma: []float64{0.8}, Beta: []float64{0.3}},
		{Gamma: []float64{0.2}, Beta: []float64{0.9}},
		{Gamma: []float64{-1.1}, Beta: []float64{0.05}},
	}
	for i, params := range angles {
		va, err := a.Expectation(params)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Expectation(params)
		if err != nil {
			t.Fatal(err)
		}
		if va != vb {
			t.Fatalf("evaluation %d: %v vs %v", i, va, vb)
		}
	}
}

// The whole point of the skeleton: a multi-evaluation loop pays for one
// pipeline run. compile/compilations counts the skeleton's sentinel
// compile only, and compile/binds counts every evaluation.
func TestHardwareEvaluatorCompilesOnceBindsPerEval(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(14)))
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.New()
	hw := &HardwareEvaluator{
		Prob: prob, Dev: device.Melbourne15(), Preset: compile.PresetIC,
		P: 1, Shots: 64, Trajectories: 2, Obs: obs,
	}
	const evals = 5
	for i := 0; i < evals; i++ {
		params := qaoa.Params{Gamma: []float64{0.1 * float64(i+1)}, Beta: []float64{0.05 * float64(i+1)}}
		if _, err := hw.Expectation(params); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.Counter(obsv.CntCompilations); got != 1 {
		t.Errorf("compile/compilations = %d, want 1 (the skeleton compile)", got)
	}
	if got := obs.Counter(obsv.CntSkeletonCompiles); got != 1 {
		t.Errorf("compile/skeleton_compiles = %d, want 1", got)
	}
	if got := obs.Counter(obsv.CntCompileBinds); got != int64(evals) {
		t.Errorf("compile/binds = %d, want %d", got, evals)
	}
	if got := obs.Counter(obsv.CntLoopEvaluations); got != int64(evals) {
		t.Errorf("loop/evaluations = %d, want %d", got, evals)
	}
}
