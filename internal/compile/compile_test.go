package compile

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/leaktest"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

func p1Params(gamma, beta float64) qaoa.Params {
	return qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
}

func mustProblem(t *testing.T, g *graphs.Graph) *qaoa.Problem {
	t.Helper()
	p, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// physicalExpectation computes ⟨C⟩ of the compiled physical circuit, reading
// logical qubit v out of physical qubit Final.Phys(v).
func physicalExpectation(prob *qaoa.Problem, res *Result) float64 {
	s := sim.NewState(res.Circuit.NQubits).Run(res.Circuit)
	return s.ExpectationDiagonal(func(y uint64) float64 {
		var x uint64
		for q := 0; q < prob.NumQubits(); q++ {
			if y&(1<<uint(res.Final.Phys(q))) != 0 {
				x |= 1 << uint(q)
			}
		}
		return prob.Cost(x)
	})
}

// Compiled circuits must preserve QAOA semantics exactly: the physical
// expectation equals the analytic p=1 expectation, for every preset.
func TestCompileSemanticsAllPresets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graphs.ErdosRenyi(7, 0.45, rng)
	prob := mustProblem(t, g)
	dev := device.Melbourne15()
	gamma, beta := 0.8, 0.3
	want := qaoa.ExpectationP1Analytic(g, gamma, beta)
	for _, preset := range Presets {
		opts := preset.Options(rand.New(rand.NewSource(5)))
		res, err := Compile(prob, p1Params(gamma, beta), dev, opts)
		if err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
		if err := dev.VerifyCompliant(res.Circuit); err != nil {
			t.Errorf("%v: %v", preset, err)
		}
		if got := physicalExpectation(prob, res); math.Abs(got-want) > 1e-8 {
			t.Errorf("%v: physical ⟨C⟩ = %v, want %v", preset, got, want)
		}
	}
}

func TestCompileGateBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graphs.MustRandomRegular(10, 3, rng)
	prob := mustProblem(t, g)
	dev := device.Tokyo20()
	params := qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.2, 0.5}}
	for _, preset := range []Preset{PresetNaive, PresetIP, PresetIC} {
		res, err := Compile(prob, params, dev, preset.Options(rng))
		if err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
		if got := res.Circuit.CountKind(circuit.CPhase); got != 2*g.M() {
			t.Errorf("%v: CPhase count %d, want %d", preset, got, 2*g.M())
		}
		if got := res.Circuit.CountKind(circuit.H); got != 10 {
			t.Errorf("%v: H count %d, want 10", preset, got)
		}
		if got := res.Circuit.CountKind(circuit.RX); got != 20 {
			t.Errorf("%v: RX count %d, want 20", preset, got)
		}
		if got := res.Circuit.CountKind(circuit.Swap); got != res.SwapCount {
			t.Errorf("%v: SwapCount %d vs %d swap gates", preset, res.SwapCount, got)
		}
		if res.Circuit.CountKind(circuit.Measure) != 0 {
			t.Errorf("%v: unexpected measurements", preset)
		}
	}
}

func TestCompileWithMeasurements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graphs.ErdosRenyi(6, 0.5, rng)
	prob := mustProblem(t, g)
	dev := device.Melbourne15()
	opts := PresetIC.Options(rng)
	opts.Measure = true
	res, err := Compile(prob, p1Params(0.5, 0.2), dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Circuit.CountKind(circuit.Measure); got != 6 {
		t.Fatalf("measure count %d, want 6", got)
	}
	// Every measured physical qubit must be a final position of a logical
	// qubit.
	want := make(map[int]bool)
	for q := 0; q < 6; q++ {
		want[res.Final.Phys(q)] = true
	}
	for _, gate := range res.Circuit.Gates {
		if gate.Kind == circuit.Measure && !want[gate.Q0] {
			t.Errorf("measurement on physical %d which holds no logical qubit", gate.Q0)
		}
	}
}

func TestCompileMetricsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graphs.MustRandomRegular(12, 3, rng)
	prob := mustProblem(t, g)
	res, err := Compile(prob, p1Params(0.4, 0.3), device.Tokyo20(), PresetIC.Options(rng))
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != res.Native.Depth() {
		t.Errorf("Depth %d != Native depth %d", res.Depth, res.Native.Depth())
	}
	if res.GateCount != res.Native.GateCount() {
		t.Errorf("GateCount %d != Native count %d", res.GateCount, res.Native.GateCount())
	}
	if res.Times.Total() <= 0 {
		t.Error("compile Times not recorded")
	}
	// Native circuit contains only basis gates.
	for _, gate := range res.Native.Gates {
		switch gate.Kind {
		case circuit.U1, circuit.U2, circuit.U3, circuit.CNOT, circuit.Measure:
		default:
			t.Fatalf("non-native gate %v", gate)
		}
	}
}

func TestVICRequiresCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graphs.ErdosRenyi(6, 0.5, rng)
	prob := mustProblem(t, g)
	if _, err := Compile(prob, p1Params(0.5, 0.2), device.Tokyo20(), PresetVIC.Options(rng)); err == nil {
		t.Error("VIC without calibration accepted")
	}
}

func TestCompileRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graphs.ErdosRenyi(5, 0.5, rng)
	prob := mustProblem(t, g)
	if _, err := Compile(prob, qaoa.Params{}, device.Melbourne15(), PresetIC.Options(rng)); err == nil {
		t.Error("empty params accepted")
	}
}

func TestCompileOversizedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graphs.ErdosRenyi(16, 0.3, rng)
	prob := &qaoa.Problem{G: g, MaxCut: 1}
	if _, err := Compile(prob, p1Params(0.5, 0.2), device.Melbourne15(), PresetIC.Options(rng)); err == nil {
		t.Error("16 qubits on melbourne accepted")
	}
}

func TestICPackingLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graphs.MustRandomRegular(12, 4, rng)
	prob := mustProblem(t, g)
	opts := PresetIC.Options(rng)
	opts.PackingLimit = 1
	res, err := Compile(prob, p1Params(0.5, 0.2), device.Tokyo20(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := device.Tokyo20().VerifyCompliant(res.Circuit); err != nil {
		t.Error(err)
	}
	if got := res.Circuit.CountKind(circuit.CPhase); got != g.M() {
		t.Errorf("CPhase count %d, want %d", got, g.M())
	}
}

func TestCompileDeterministicWithSeed(t *testing.T) {
	g := graphs.MustRandomRegular(10, 3, rand.New(rand.NewSource(9)))
	prob := mustProblem(t, g)
	run := func() *Result {
		res, err := Compile(prob, p1Params(0.5, 0.2), device.Tokyo20(), PresetIC.Options(rand.New(rand.NewSource(10))))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Circuit.Len() != b.Circuit.Len() || a.Depth != b.Depth || a.GateCount != b.GateCount {
		t.Error("same-seed compilations differ")
	}
	for i := range a.Circuit.Gates {
		if a.Circuit.Gates[i] != b.Circuit.Gates[i] {
			t.Fatal("same-seed gate sequences differ")
		}
	}
}

// Property: for random problems and all presets, compilation yields
// compliant circuits whose CPhase multiset covers exactly the problem
// edges (under the evolving layout — verified by count here, exactness by
// the semantic test above).
func TestCompileComplianceProperty(t *testing.T) {
	devs := []*device.Device{device.Melbourne15(), device.Tokyo20(), device.Grid(4, 4)}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := devs[rng.Intn(len(devs))]
		n := 4 + rng.Intn(8)
		g := graphs.ErdosRenyi(n, 0.4, rng)
		prob := &qaoa.Problem{G: g, MaxCut: 1}
		presets := []Preset{PresetNaive, PresetGreedyV, PresetQAIM, PresetIP, PresetIC}
		if dev.Calib != nil {
			presets = append(presets, PresetVIC)
		}
		for _, preset := range presets {
			res, err := Compile(prob, p1Params(0.7, 0.3), dev, preset.Options(rng))
			if err != nil {
				return false
			}
			if dev.VerifyCompliant(res.Circuit) != nil {
				return false
			}
			if res.Circuit.CountKind(circuit.CPhase) != g.M() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// IC should never do worse than NAIVE on depth for structured sparse
// problems (averaged over instances) — the paper's headline effect.
func TestICBeatsNaiveOnAverage(t *testing.T) {
	dev := device.Tokyo20()
	rng := rand.New(rand.NewSource(20))
	var naiveDepth, icDepth float64
	const trials = 12
	for i := 0; i < trials; i++ {
		g := graphs.MustRandomRegular(16, 4, rng)
		prob := &qaoa.Problem{G: g, MaxCut: 1}
		rn, err := Compile(prob, p1Params(0.5, 0.2), dev, PresetNaive.Options(rng))
		if err != nil {
			t.Fatal(err)
		}
		ric, err := Compile(prob, p1Params(0.5, 0.2), dev, PresetIC.Options(rng))
		if err != nil {
			t.Fatal(err)
		}
		naiveDepth += float64(rn.Depth)
		icDepth += float64(ric.Depth)
	}
	if icDepth >= naiveDepth {
		t.Errorf("IC mean depth %v not below NAIVE %v", icDepth/trials, naiveDepth/trials)
	}
}

func TestPresetStrings(t *testing.T) {
	want := []string{"NAIVE", "GreedyV", "QAIM", "IP", "IC", "VIC"}
	for i, p := range Presets {
		if p.String() != want[i] {
			t.Errorf("preset %d name %q, want %q", i, p.String(), want[i])
		}
	}
	if Strategy(99).String() == "" || Mapper(99).String() == "" {
		t.Error("unknown enum names empty")
	}
}

// Optimize must preserve semantics while never increasing the native gate
// count, and typically reducing it (SWAP/CPhase CNOT fusion).
func TestCompileOptimizeFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := graphs.MustRandomRegular(12, 4, rng)
	prob := mustProblem(t, g)
	dev := device.Melbourne15()
	gamma, beta := 0.8, 0.3
	want := qaoa.ExpectationP1Analytic(g, gamma, beta)

	plain, err := Compile(prob, p1Params(gamma, beta), dev, PresetIC.Options(rand.New(rand.NewSource(31))))
	if err != nil {
		t.Fatal(err)
	}
	opts := PresetIC.Options(rand.New(rand.NewSource(31)))
	opts.Optimize = true
	optimized, err := Compile(prob, p1Params(gamma, beta), dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.GateCount > plain.GateCount {
		t.Errorf("optimize grew gate count %d → %d", plain.GateCount, optimized.GateCount)
	}
	if err := dev.VerifyCompliant(optimized.Circuit); err != nil {
		t.Error(err)
	}
	if got := physicalExpectation(prob, optimized); math.Abs(got-want) > 1e-8 {
		t.Errorf("optimized ⟨C⟩ = %v, want %v", got, want)
	}
}

// RouterTrials must keep semantics; for the whole-circuit strategies (one
// backend call, trial 0 = the deterministic attempt) it can never increase
// the swap count. For IC the choice is per-layer-greedy, so only semantics
// are guaranteed.
func TestCompileRouterTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	g := graphs.MustRandomRegular(14, 4, rng)
	prob := mustProblem(t, g)
	gamma, beta := 0.6, 0.25
	want := qaoa.ExpectationP1Analytic(g, gamma, beta)

	single, err := Compile(prob, p1Params(gamma, beta), device.Tokyo20(), PresetIP.Options(rand.New(rand.NewSource(41))))
	if err != nil {
		t.Fatal(err)
	}
	opts := PresetIP.Options(rand.New(rand.NewSource(41)))
	opts.RouterTrials = 4
	multi, err := Compile(prob, p1Params(gamma, beta), device.Tokyo20(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if multi.SwapCount > single.SwapCount {
		t.Errorf("trials swaps %d worse than deterministic %d", multi.SwapCount, single.SwapCount)
	}
	// Semantic check on a small instance.
	g2 := graphs.ErdosRenyi(7, 0.5, rng)
	prob2 := mustProblem(t, g2)
	opts2 := PresetIC.Options(rand.New(rand.NewSource(42)))
	opts2.RouterTrials = 4
	res2, err := Compile(prob2, p1Params(gamma, beta), device.Melbourne15(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	want = qaoa.ExpectationP1Analytic(g2, gamma, beta)
	if got := physicalExpectation(prob2, res2); math.Abs(got-want) > 1e-8 {
		t.Errorf("trials ⟨C⟩ = %v, want %v", got, want)
	}
}

// Multi-level semantics: every preset must preserve the p=2 QAOA state
// exactly (each level's commuting block re-ordered independently).
func TestCompileSemanticsP2AllPresets(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := graphs.ErdosRenyi(6, 0.5, rng)
	prob := mustProblem(t, g)
	params := qaoa.Params{Gamma: []float64{0.7, 0.4}, Beta: []float64{0.3, 0.15}}
	want, err := qaoa.Expectation(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.Melbourne15()
	for _, preset := range Presets {
		res, err := Compile(prob, params, dev, preset.Options(rand.New(rand.NewSource(51))))
		if err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
		got := physicalExpectation(prob, res)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("%v: p=2 ⟨C⟩ = %v, want %v", preset, got, want)
		}
	}
}

// Graphs with isolated vertices still compile: the isolated qubit gets H and
// mixer gates but no cost interactions.
func TestCompileIsolatedVertices(t *testing.T) {
	g := graphs.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2) // vertices 3, 4 isolated
	prob := &qaoa.Problem{G: g, MaxCut: 1}
	res, err := Compile(prob, p1Params(0.5, 0.2), device.Melbourne15(),
		PresetIC.Options(rand.New(rand.NewSource(52))))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Circuit.CountKind(circuit.H); got != 5 {
		t.Errorf("H count %d, want 5 (isolated qubits included)", got)
	}
	if got := res.Circuit.CountKind(circuit.CPhase); got != 2 {
		t.Errorf("CPhase count %d, want 2", got)
	}
}

// An edgeless problem has no cost gates at all but remains a valid circuit.
func TestCompileEdgelessGraph(t *testing.T) {
	prob := &qaoa.Problem{G: graphs.New(4), MaxCut: 1}
	res, err := Compile(prob, p1Params(0.5, 0.2), device.Melbourne15(),
		PresetIP.Options(rand.New(rand.NewSource(53))))
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 || res.Circuit.CountKind(circuit.CPhase) != 0 {
		t.Errorf("edgeless compile: swaps=%d cphase=%d", res.SwapCount, res.Circuit.CountKind(circuit.CPhase))
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n-th call on: a cancellation that lands at a fixed point of a compile.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRouterTrialsJoinWorkers: a RouterTrials > 1 compile on two cores
// fans its trials out to workers, and none of them outlives the compile —
// whether it succeeds or is cancelled while the trials run.
func TestRouterTrialsJoinWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	prob := mustProblem(t, graphs.MustRandomRegular(16, 3, rand.New(rand.NewSource(7))))
	compileWith := func(ctx context.Context) (*obsv.Collector, error) {
		opts := PresetIP.Options(rand.New(rand.NewSource(5)))
		opts.RouterTrials = 8
		opts.Obs = obsv.New()
		_, err := CompileContext(ctx, prob, p1Params(0.5, 0.2), device.Tokyo20(), opts)
		return opts.Obs, err
	}

	baseline := runtime.NumGoroutine()
	const budget = 1 << 40
	counted := &cancelAfter{Context: context.Background()}
	counted.n.Store(budget)
	col, err := compileWith(counted)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Counters[obsv.CntRouterTrials]; got != 8 {
		t.Fatalf("router/trials = %d, want 8", got)
	}
	leaktest.Check(t, baseline)

	// The first trial runs alone before the fan-out and takes about an
	// eighth of the ctx checks, so cancelling at three quarters of them
	// lands among the parallel trials.
	calls := budget - counted.n.Load()
	cancelled := &cancelAfter{Context: context.Background()}
	cancelled.n.Store(calls * 3 / 4)
	if _, err := compileWith(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile: err = %v, want context.Canceled", err)
	}
	leaktest.Check(t, baseline)
}
