package compile

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/graphs"
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

// A compile that fails inside a pass still closes that pass's bracket:
// every pass_begin of the trace has its pass_end.
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
	cases := []struct {
		name   string
		spec   Spec
		opts   Options
		cancel bool
		failed string // the pass whose bracket the error interrupts
	}{
		{"duplicate term, edge coloring", dup, Options{Mapper: MapQAIM, Strategy: WholeColor}, false, StageOrder},
		{"cancelled route, whole circuit", ringSpec, PresetQAIM.Options(nil), true, StageRoute},
		{"cancelled route, incremental", ringSpec, PresetIC.Options(nil), true, StageRoute},
	}
	for _, tc := range cases {
		tr := trace.New()
		tc.opts.Trace = tr
		ctx := context.Background()
		if tc.cancel {
			ctx = routeCancelCtx{Context: ctx, tr: tr}
		}
		if _, err := CompileSpecContext(ctx, tc.spec, device.Tokyo20(), tc.opts); err == nil {
			t.Fatalf("%s: compile succeeded", tc.name)
		} else if tc.cancel && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want a cancellation", tc.name, err)
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
