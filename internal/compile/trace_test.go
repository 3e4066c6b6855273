package compile

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// compileTraced runs one fixed-seed compilation with a fresh tracer and
// returns the recorded events.
func compileTraced(t *testing.T, preset Preset, seed int64, trials int) ([]trace.Event, *Result) {
	t.Helper()
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(7)))
	prob := mustProblem(t, g)
	dev := device.Tokyo20()
	opts := preset.Options(rand.New(rand.NewSource(seed)))
	opts.RouterTrials = trials
	tr := trace.New()
	opts.Trace = tr
	res, err := Compile(prob, p1Params(0.5, 0.2), dev, opts)
	if err != nil {
		t.Fatalf("%v: %v", preset, err)
	}
	return tr.Events(), res
}

// Two fixed-seed runs must produce byte-identical JSONL once timestamps are
// stripped — the property the CI trace-determinism gate relies on.
func TestTraceDeterministicWithSeed(t *testing.T) {
	for _, preset := range []Preset{PresetIC, PresetIP, PresetNaive} {
		var streams [2][]byte
		for i := range streams {
			events, _ := compileTraced(t, preset, 42, 1)
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, events, true); err != nil {
				t.Fatal(err)
			}
			streams[i] = buf.Bytes()
		}
		if !bytes.Equal(streams[0], streams[1]) {
			t.Errorf("%v: stripped JSONL differs across identical fixed-seed runs", preset)
		}
	}
}

// The trace must open with meta, bracket every pass, and carry one placement
// event per logical qubit for QAIM plus a stitch per incremental layer.
func TestTraceStructureIC(t *testing.T) {
	events, res := compileTraced(t, PresetIC, 3, 1)
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	if events[0].Kind != trace.KindMeta {
		t.Fatalf("first event is %q, want meta", events[0].Kind)
	}
	m := events[0].Meta
	if m.Device != "ibmq_20_tokyo" || m.NQubits != 20 || m.NLogical != 8 {
		t.Errorf("meta = %+v", m)
	}
	if len(m.Coupling) == 0 {
		t.Error("meta carries no coupling edges")
	}
	counts := map[trace.Kind]int{}
	open := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
		switch e.Kind {
		case trace.KindPassBegin:
			open[e.Pass]++
		case trace.KindPassEnd:
			open[e.Pass]--
			if open[e.Pass] < 0 {
				t.Fatalf("pass %q ended before it began", e.Pass)
			}
		}
	}
	for pass, n := range open {
		if n != 0 {
			t.Errorf("pass %q left %d unclosed brackets", pass, n)
		}
	}
	if counts[trace.KindPlacement] != 8 {
		t.Errorf("%d placement events, want one per logical qubit (8)", counts[trace.KindPlacement])
	}
	if counts[trace.KindLayer] == 0 {
		t.Error("no layer-formation events for IC")
	}
	if counts[trace.KindLayer] != counts[trace.KindStitch] {
		t.Errorf("%d layer events but %d stitch events", counts[trace.KindLayer], counts[trace.KindStitch])
	}
	if counts[trace.KindSwap] != res.SwapCount {
		t.Errorf("%d swap events, result reports %d SWAPs", counts[trace.KindSwap], res.SwapCount)
	}
}

// Every SWAP event's before/after layouts must differ exactly at the swapped
// positions, and consecutive events must chain (the layout history replays).
func TestTraceSwapLayoutsChain(t *testing.T) {
	events, _ := compileTraced(t, PresetIC, 11, 1)
	var prev []int
	for _, e := range events {
		if e.Kind != trace.KindSwap {
			continue
		}
		s := e.Swap
		if len(s.Before) != len(s.After) {
			t.Fatalf("swap %d↔%d: layout lengths differ", s.P1, s.P2)
		}
		for q, p := range s.Before {
			want := p
			switch p {
			case s.P1:
				want = s.P2
			case s.P2:
				want = s.P1
			}
			if s.After[q] != want {
				t.Errorf("swap %d↔%d: logical %d went %d→%d, want %d", s.P1, s.P2, q, p, s.After[q], want)
			}
		}
		if prev != nil {
			// SWAPs within one routing call chain exactly; across incremental
			// layers the layout carries over unchanged, so they still chain.
			same := len(prev) == len(s.Before)
			if same {
				for i := range prev {
					if prev[i] != s.Before[i] {
						same = false
						break
					}
				}
			}
			if !same {
				t.Errorf("swap %d↔%d: before-layout does not chain from previous after-layout", s.P1, s.P2)
			}
		}
		prev = s.After
	}
}

// With stochastic router trials, tracing must not change the chosen result:
// attempts run untraced and only the winner is re-routed with tracing.
func TestTraceDoesNotPerturbRouterTrials(t *testing.T) {
	_, plain := compileTraced(t, PresetIC, 5, 4)
	events, traced := compileTraced(t, PresetIC, 5, 4)
	if plain.SwapCount != traced.SwapCount || plain.Depth != traced.Depth || plain.GateCount != traced.GateCount {
		t.Errorf("tracing changed the trials outcome: swaps %d vs %d, depth %d vs %d, gates %d vs %d",
			plain.SwapCount, traced.SwapCount, plain.Depth, traced.Depth, plain.GateCount, traced.GateCount)
	}
	swaps := 0
	for _, e := range events {
		if e.Kind == trace.KindSwap {
			swaps++
		}
	}
	if swaps != traced.SwapCount {
		t.Errorf("trace carries %d swap events, result has %d SWAPs", swaps, traced.SwapCount)
	}
}

// The chrome export of a real compilation must be valid JSON with events.
func TestTraceChromeExportFromCompilation(t *testing.T) {
	events, _ := compileTraced(t, PresetIC, 9, 1)
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= len(events) {
		// metadata events come on top of the converted stream
		t.Errorf("chrome export has %d events for %d trace events", len(doc.TraceEvents), len(events))
	}
}

// The fallback ladder must leave its path in the trace: a VIC request on an
// uncalibrated device records the skip and the final effective preset.
func TestTraceFallbackLadder(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(7)))
	prob := mustProblem(t, g)
	spec, err := SpecFromMaxCut(prob, p1Params(0.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	res, err := CompileSpecResilient(context.Background(), spec, device.Tokyo20(), PresetVIC,
		FallbackOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback.Degraded {
		t.Fatal("VIC on uncalibrated tokyo should degrade")
	}
	var fails, finals int
	var finalPreset string
	for _, e := range tr.Events() {
		if e.Kind != trace.KindFallback {
			continue
		}
		if e.Fallback.Final {
			finals++
			finalPreset = e.Fallback.Preset
		} else {
			fails++
		}
	}
	if fails == 0 {
		t.Error("no failed-attempt fallback events for the VIC skip")
	}
	if finals != 1 {
		t.Errorf("%d final fallback events, want exactly 1", finals)
	}
	if finalPreset != res.Fallback.Effective.String() {
		t.Errorf("final fallback event names %q, result says %q", finalPreset, res.Fallback.Effective)
	}
}

// routeCancelCtx reads as live until the trace holds a route pass_begin,
// and as cancelled from then on: the route pass, and no checkpoint before
// it, is what sees the cancellation.
type routeCancelCtx struct {
	context.Context
	tr *trace.Tracer
}

func (c routeCancelCtx) Err() error {
	for _, e := range c.tr.Events() {
		if e.Kind == trace.KindPassBegin && e.Pass == StageRoute {
			return context.Canceled
		}
	}
	return nil
}

// passPanicSource is a rand.Source whose draws panic once the trace holds a
// pass_begin for pass: the pass that draws next crashes mid-flight.
type passPanicSource struct {
	rand.Source
	tr   *trace.Tracer
	pass string
}

func (s passPanicSource) Int63() int64 {
	for _, e := range s.tr.Events() {
		if e.Kind == trace.KindPassBegin && e.Pass == s.pass {
			panic("injected: " + s.pass + " pass crashed")
		}
	}
	return s.Source.Int63()
}

// A compile that fails inside a pass, by error, cancellation or panic,
// still closes that pass's bracket: every pass_begin of the trace has its
// pass_end. A panic reports the pass it crashed.
func TestTracePassBracketsClosedOnError(t *testing.T) {
	dup := Spec{N: 3, Levels: []LevelSpec{{
		ZZ:        []ZZTerm{{U: 0, V: 1, Theta: 0.3}, {U: 1, V: 2, Theta: 0.3}, {U: 0, V: 1, Theta: 0.3}},
		MixerBeta: 0.2,
	}}}
	ring := mustProblem(t, graphs.Cycle(6))
	ringSpec, err := SpecFromMaxCut(ring, p1Params(0.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	trials := PresetQAIM.Options(nil)
	trials.RouterTrials = 2
	cases := []struct {
		name           string
		spec           Spec
		opts           Options
		cancel, panics bool
		failed         string // the pass whose bracket the error interrupts
	}{
		{"duplicate term, edge coloring", dup, Options{Mapper: MapQAIM, Strategy: WholeColor}, false, false, StageOrder},
		{"cancelled route, whole circuit", ringSpec, PresetQAIM.Options(nil), true, false, StageRoute},
		{"cancelled route, incremental", ringSpec, PresetIC.Options(nil), true, false, StageRoute},
		{"panicking order, whole circuit", ringSpec, PresetQAIM.Options(nil), false, true, StageOrder},
		{"panicking order, incremental", ringSpec, PresetIC.Options(nil), false, true, StageOrder},
		{"panicking route, router trials", ringSpec, trials, false, true, StageRoute},
	}
	for _, tc := range cases {
		tr := trace.New()
		tc.opts.Trace = tr
		ctx := context.Background()
		if tc.cancel {
			ctx = routeCancelCtx{Context: ctx, tr: tr}
		}
		if tc.panics {
			tc.opts.Rng = rand.New(passPanicSource{Source: rand.NewSource(1), tr: tr, pass: tc.failed})
		}
		var pe *PanicError
		if _, err := CompileSpecContext(ctx, tc.spec, device.Tokyo20(), tc.opts); err == nil {
			t.Fatalf("%s: compile succeeded", tc.name)
		} else if tc.cancel && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want a cancellation", tc.name, err)
		} else if tc.panics && (!errors.As(err, &pe) || pe.Stage != tc.failed) {
			t.Fatalf("%s: error %v, want a panic in the %s pass", tc.name, err, tc.failed)
		}
		open := map[string]int{}
		for _, e := range tr.Events() {
			switch e.Kind {
			case trace.KindPassBegin:
				open[e.Pass]++
			case trace.KindPassEnd:
				open[e.Pass]--
			}
		}
		if _, began := open[tc.failed]; !began {
			t.Errorf("%s: the error came before the %s pass began", tc.name, tc.failed)
		}
		for pass, n := range open {
			if n != 0 {
				t.Errorf("%s: pass %q left %d brackets open", tc.name, pass, n)
			}
		}
	}
}

// bracketTimes checks that a compile's pass brackets run one at a time and
// all close, and returns each pass's bracket count and summed duration.
func bracketTimes(t *testing.T, name string, events []trace.Event) (map[string]int, map[string]time.Duration) {
	t.Helper()
	count, sum := map[string]int{}, map[string]time.Duration{}
	open, began := "", int64(0)
	for _, e := range events {
		switch e.Kind {
		case trace.KindPassBegin:
			if open != "" {
				t.Fatalf("%s: pass %q began inside %q", name, e.Pass, open)
			}
			open, began = e.Pass, e.TimeUS
		case trace.KindPassEnd:
			if e.Pass != open {
				t.Fatalf("%s: pass %q ended while %q was open", name, e.Pass, open)
			}
			count[open]++
			sum[open] += time.Duration(e.TimeUS-began) * time.Microsecond
			open = ""
		}
	}
	if open != "" {
		t.Fatalf("%s: pass %q left open", name, open)
	}
	return count, sum
}

// One clock drives a compile's stage times and its trace brackets. For
// every preset with peephole optimization on and off, and for a skeleton
// compile: every stage Times charges has brackets, a stage's brackets sum
// to its Times within a microsecond per bracket plus one, meta still opens
// the trace, and trace/events counts every event, the last bracket's close
// included.
func TestTraceBracketsMatchTimes(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(5)))
	prob := mustProblem(t, g)
	dev := device.Melbourne15()
	ps, err := ParamSpecFromMaxCut(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, opts Options, compile func(Options) (Times, error)) {
		t.Helper()
		tr, col := trace.New(), obsv.New()
		opts.Trace, opts.Obs = tr, col
		times, err := compile(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events := tr.Events()
		if events[0].Kind != trace.KindMeta {
			t.Errorf("%s: first event is %q, want meta", name, events[0].Kind)
		}
		if got := col.Snapshot().Counters[obsv.CntTraceEvents]; got != int64(len(events)) {
			t.Errorf("%s: trace/events %d, the trace holds %d", name, got, len(events))
		}
		count, sum := bracketTimes(t, name, events)
		for _, st := range []struct {
			pass string
			d    time.Duration
		}{
			{StageMap, times.Map}, {StageOrder, times.Order}, {StageRoute, times.Route},
			{StageStitch, times.Stitch}, {StageLower, times.Lower},
		} {
			if st.d > 0 && count[st.pass] == 0 {
				t.Errorf("%s: %s took %v but has no bracket", name, st.pass, st.d)
			}
			diff := sum[st.pass] - st.d
			if diff < 0 {
				diff = -diff
			}
			if slack := time.Duration(count[st.pass]+1) * time.Microsecond; diff > slack {
				t.Errorf("%s: %s brackets sum to %v over %d brackets, Times says %v", name, st.pass, sum[st.pass], count[st.pass], st.d)
			}
		}
	}
	for _, preset := range Presets {
		for _, optimize := range []bool{false, true} {
			opts := preset.Options(rand.New(rand.NewSource(int64(preset) + 1)))
			opts.Optimize = optimize
			check(preset.String(), opts, func(opts Options) (Times, error) {
				res, err := Compile(prob, p1Params(0.5, 0.2), dev, opts)
				if err != nil {
					return Times{}, err
				}
				return res.Times, nil
			})
		}
	}
	check("skeleton", PresetIC.Options(rand.New(rand.NewSource(9))), func(opts Options) (Times, error) {
		sk, err := CompileSkeleton(context.Background(), ps, dev, opts)
		if err != nil {
			return Times{}, err
		}
		return sk.res.Times, nil
	})
}
