package compile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
)

func smallProblem(t *testing.T, n int, seed int64) *qaoa.Problem {
	t.Helper()
	g := graphs.MustRandomRegular(n, 3, rand.New(rand.NewSource(seed)))
	return mustProblem(t, g)
}

func TestCompileContextExpiredDeadline(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // guarantee the deadline is spent before compiling
	_, err := CompileContext(ctx, prob, p1Params(0.5, 0.2), device.Tokyo20(),
		PresetIC.Options(rand.New(rand.NewSource(1))))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestCompileHookErrorSurfaces(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	boom := errors.New("boom")
	opts := PresetIC.Options(rand.New(rand.NewSource(1)))
	opts.Hook = func(stage string) error {
		if stage == StageRoute {
			return boom
		}
		return nil
	}
	_, err := CompileContext(context.Background(), prob, p1Params(0.5, 0.2), device.Tokyo20(), opts)
	if !errors.Is(err, boom) {
		t.Fatalf("want hook error, got %v", err)
	}
}

func TestCompilePanicBecomesTypedError(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	opts := PresetIC.Options(rand.New(rand.NewSource(1)))
	opts.Hook = func(stage string) error {
		panic(fmt.Sprintf("injected in %s", stage))
	}
	_, err := CompileContext(context.Background(), prob, p1Params(0.5, 0.2), device.Tokyo20(), opts)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Stage != StageMap {
		t.Fatalf("panic stage = %q, want %q", pe.Stage, StageMap)
	}
}

// Hooks fire at the start of their own stage in a fixed sequence: map,
// order, route for the whole-circuit strategies; map, then route once per
// formed layer for IC/VIC. A hook that panics at any one of those calls
// reports that call's stage.
func TestCompileHookSequence(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	dev := device.Melbourne15()
	type config struct {
		name string
		opts func() Options
	}
	var configs []config
	for _, preset := range Presets {
		configs = append(configs, config{preset.String(), func() Options { return preset.Options(rand.New(rand.NewSource(4))) }})
	}
	configs = append(configs, config{"vizing", func() Options { return Options{Mapper: MapQAIM, Strategy: WholeColor} }})
	for _, c := range configs {
		opts := c.opts()
		col := obsv.New()
		var seq []string
		opts.Obs = col
		opts.Hook = func(stage string) error {
			seq = append(seq, stage)
			return nil
		}
		if _, err := Compile(prob, p1Params(0.5, 0.2), dev, opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := []string{StageMap, StageOrder, StageRoute}
		if opts.Strategy == Incremental || opts.Strategy == IncrementalVariation {
			want = []string{StageMap}
			for i := int64(0); i < col.Snapshot().Counters[obsv.CntCompileLayers]; i++ {
				want = append(want, StageRoute)
			}
		}
		if fmt.Sprint(seq) != fmt.Sprint(want) || len(want) < 2 {
			t.Fatalf("%s: hooks fired %v, want %v", c.name, seq, want)
		}
		for i, stage := range want {
			opts := c.opts()
			calls := 0
			opts.Hook = func(string) error {
				if calls == i {
					panic("injected")
				}
				calls++
				return nil
			}
			_, err := Compile(prob, p1Params(0.5, 0.2), dev, opts)
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Stage != stage {
				t.Errorf("%s: panic in hook call %d gave %v, want a panic in %s", c.name, i, err, stage)
			}
		}
	}
}

func TestCompileDisconnectedDeviceNoPanic(t *testing.T) {
	// 6-qubit device broken into a 4-chain and a 2-chain: a 4-node problem
	// must compile onto the large component; a 5-node problem must fail with
	// a typed error, and nothing may panic.
	g := graphs.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(4, 5)
	dev := &device.Device{Name: "split6", Coupling: g}

	probFit := smallProblem(t, 4, 7)
	for _, preset := range Presets {
		if preset == PresetVIC {
			continue // needs calibration
		}
		res, err := Compile(probFit, p1Params(0.5, 0.2), dev, preset.Options(rand.New(rand.NewSource(2))))
		if err != nil {
			t.Fatalf("%v on largest component: %v", preset, err)
		}
		if err := dev.VerifyCompliant(res.Circuit); err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
	}

	probBig := smallProblem(t, 6, 7)
	_, err := Compile(probBig, p1Params(0.5, 0.2), dev, PresetIC.Options(rand.New(rand.NewSource(2))))
	var ie *InsufficientQubitsError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InsufficientQubitsError, got %v", err)
	}
	if ie.Usable != 4 || ie.Total != 6 {
		t.Fatalf("error fields = %+v", ie)
	}
}

func TestCompileDeadQubitMelbourneNoPanic(t *testing.T) {
	// Kill qubit 0 of ibmq_16_melbourne by severing its edges; a 12-node
	// problem still fits the surviving 14-qubit component.
	healthy := device.Melbourne15()
	g := graphs.New(healthy.NQubits())
	for _, e := range healthy.Coupling.Edges() {
		if e.U == 0 || e.V == 0 {
			continue
		}
		g.MustAddEdge(e.U, e.V)
	}
	dev := &device.Device{Name: "melbourne/dead0", Coupling: g, Calib: healthy.Calib}
	prob := smallProblem(t, 12, 11)
	for _, preset := range Presets {
		res, err := Compile(prob, p1Params(0.5, 0.2), dev, preset.Options(rand.New(rand.NewSource(3))))
		if err != nil {
			t.Fatalf("%v with dead qubit: %v", preset, err)
		}
		for _, gate := range res.Circuit.Gates {
			if gate.Q0 == 0 || (gate.Arity() == 2 && gate.Q1 == 0) {
				t.Fatalf("%v: gate %v touches dead qubit 0", preset, gate)
			}
		}
	}
}

func TestCompileMissingCNOTCalibrationNoPanic(t *testing.T) {
	// VIC on a device whose calibration lost one edge entry: the pessimistic
	// reliability weighting must carry it, not panic or error.
	rng := rand.New(rand.NewSource(9))
	dev := device.Melbourne15()
	cal := &device.Calibration{
		CNOTError:        make(map[[2]int]float64, len(dev.Calib.CNOTError)),
		SingleQubitError: dev.Calib.SingleQubitError,
		ReadoutError:     dev.Calib.ReadoutError,
	}
	for k, v := range dev.Calib.CNOTError {
		cal.CNOTError[k] = v
	}
	e0 := dev.Coupling.Edges()[0]
	delete(cal.CNOTError, [2]int{e0.U, e0.V})
	partial := &device.Device{Name: "melbourne/partial-calib", Coupling: dev.Coupling, Calib: cal}

	prob := smallProblem(t, 10, 13)
	res, err := Compile(prob, p1Params(0.5, 0.2), partial, PresetVIC.Options(rng))
	if err != nil {
		t.Fatalf("VIC with missing calibration entry: %v", err)
	}
	if err := partial.VerifyCompliant(res.Circuit); err != nil {
		t.Fatal(err)
	}
}

func TestLadderShapes(t *testing.T) {
	cases := map[Preset][]Preset{
		PresetVIC:     {PresetVIC, PresetIC, PresetIP, PresetNaive},
		PresetIC:      {PresetIC, PresetIP, PresetNaive},
		PresetIP:      {PresetIP, PresetNaive},
		PresetQAIM:    {PresetQAIM, PresetNaive},
		PresetGreedyV: {PresetGreedyV, PresetNaive},
		PresetNaive:   {PresetNaive},
	}
	for p, want := range cases {
		got := Ladder(p)
		if len(got) != len(want) {
			t.Fatalf("Ladder(%v) = %v, want %v", p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Ladder(%v) = %v, want %v", p, got, want)
			}
		}
	}
}

func TestCompileResilientDirectSuccess(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	res, err := CompileResilient(context.Background(), prob, p1Params(0.5, 0.2),
		device.Tokyo20(), PresetIC, FallbackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := res.Fallback
	if fb == nil {
		t.Fatal("resilient result missing FallbackInfo")
	}
	if fb.Degraded || fb.Effective != PresetIC || len(fb.Attempts) != 0 {
		t.Fatalf("unexpected fallback info %+v", fb)
	}
}

func TestCompileResilientVICWithoutCalibrationDegrades(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	res, err := CompileResilient(context.Background(), prob, p1Params(0.5, 0.2),
		device.Tokyo20(), PresetVIC, FallbackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := res.Fallback
	if fb == nil || !fb.Degraded {
		t.Fatalf("want degraded fallback, got %+v", fb)
	}
	if fb.Requested != PresetVIC || fb.Effective != PresetIC {
		t.Fatalf("want VIC→IC, got %v→%v", fb.Requested, fb.Effective)
	}
	if fb.Reason == "" || len(fb.Attempts) != 1 {
		t.Fatalf("fallback bookkeeping %+v", fb)
	}
}

func TestCompileResilientRetriesThenSucceeds(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	fails := 0
	fo := FallbackOptions{
		Backoff: time.Microsecond,
		Hook: func(stage string) error {
			if stage == StageMap && fails < 1 {
				fails++
				return errors.New("transient")
			}
			return nil
		},
	}
	res, err := CompileResilient(context.Background(), prob, p1Params(0.5, 0.2),
		device.Tokyo20(), PresetIC, fo)
	if err != nil {
		t.Fatal(err)
	}
	fb := res.Fallback
	if fb.Degraded {
		t.Fatalf("retry within the rung should not degrade: %+v", fb)
	}
	if len(fb.Attempts) != 1 || fb.Attempts[0].Retry != 0 {
		t.Fatalf("attempts = %+v", fb.Attempts)
	}
}

func TestCompileResilientLadderExhausted(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	fo := FallbackOptions{
		Backoff: time.Microsecond,
		Hook:    func(string) error { return errors.New("always down") },
	}
	_, err := CompileResilient(context.Background(), prob, p1Params(0.5, 0.2),
		device.Tokyo20(), PresetIP, fo)
	var le *LadderError
	if !errors.As(err, &le) {
		t.Fatalf("want *LadderError, got %v", err)
	}
	// Ladder(IP) has 2 rungs × (1 + 1 retry) attempts each.
	if le.Requested != PresetIP || len(le.Attempts) != 4 {
		t.Fatalf("ladder error %+v", le)
	}
}

func TestCompileResilientAbortsOnDeadline(t *testing.T) {
	prob := smallProblem(t, 8, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err := CompileResilient(ctx, prob, p1Params(0.5, 0.2),
		device.Tokyo20(), PresetIC, FallbackOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestCompileResilientInsufficientQubitsAborts(t *testing.T) {
	// No ladder rung can fix a problem larger than the device: fail fast.
	prob := smallProblem(t, 8, 3)
	_, err := CompileResilient(context.Background(), prob, p1Params(0.5, 0.2),
		device.Linear(4), PresetIC, FallbackOptions{})
	var ie *InsufficientQubitsError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InsufficientQubitsError, got %v", err)
	}
}
