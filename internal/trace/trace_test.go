package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sampleEvents builds a small but kind-complete stream by hand.
func sampleEvents() []Event {
	tr := New()
	tr.Meta(MetaInfo{
		Device:   "toy",
		NQubits:  4,
		Coupling: [][2]int{{0, 1}, {1, 2}, {2, 3}},
		NLogical: 3,
		Mapper:   "qaim",
		Strategy: "ic",
	})
	tr.Pass("", "map", time.Now())
	tr.Placement(PlacementInfo{Logical: 0, Phys: 1, Strength: 3, Candidates: 4})
	tr.Placement(PlacementInfo{Logical: 1, Phys: 2, Strength: 2, Score: 1.5, Candidates: 2, PlacedNeighbors: []int{1}})
	tr.Pass("map", "order", time.Now())
	tr.Layer(LayerInfo{Index: 0, Level: 0, Terms: []TermInfo{{U: 0, V: 1, PU: 1, PV: 2, Dist: 1}}, Deferred: 1})
	tr.Pass("order", "route", time.Now())
	tr.Swap(SwapInfo{P1: 2, P2: 3, Cost: 1, Gain: 1, RoutingLayer: 0, Before: []int{1, 2, 0}, After: []int{1, 3, 0}})
	tr.Swap(SwapInfo{P1: 0, P2: 1, Cost: 1, Forced: true, RoutingLayer: 1, Before: []int{1, 3, 0}, After: []int{0, 3, 1}})
	tr.Pass("route", "stitch", time.Now())
	tr.Stitch(StitchInfo{Layer: 0, Gates: 5, Swaps: 2})
	tr.Pass("stitch", "", time.Now())
	tr.Fallback(FallbackInfo{Preset: "VIC", Err: "vic requires device calibration on toy"})
	tr.Fallback(FallbackInfo{Preset: "IC", Final: true})
	return tr.Events()
}

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Meta(MetaInfo{})
	tr.Pass("map", "order", time.Time{})
	tr.Placement(PlacementInfo{})
	tr.Layer(LayerInfo{})
	tr.Swap(SwapInfo{})
	tr.Stitch(StitchInfo{})
	tr.Fallback(FallbackInfo{})
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestTracerSequencing(t *testing.T) {
	events := sampleEvents()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
		if e.TimeUS < 0 {
			t.Errorf("event %d has negative timestamp %d", i, e.TimeUS)
		}
	}
	if events[0].Kind != KindMeta {
		t.Errorf("first event is %q, want meta", events[0].Kind)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, false); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(events))
	}
	want, _ := json.Marshal(events)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Errorf("round-trip changed the stream:\nwant %s\ngot  %s", want, have)
	}
}

func TestJSONLStripRemovesOnlyTimestamps(t *testing.T) {
	events := sampleEvents()
	var stripped bytes.Buffer
	if err := WriteJSONL(&stripped, events, true); err != nil {
		t.Fatal(err)
	}
	// The source slice must be untouched (strip copies per event).
	anyTime := false
	for _, e := range events {
		if e.TimeUS != 0 {
			anyTime = true
		}
	}
	_ = anyTime // timestamps may legitimately all be 0 on a fast machine
	got, err := ReadJSONL(bytes.NewReader(stripped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		if e.TimeUS != 0 {
			t.Errorf("stripped event %d still has t_us %d", i, e.TimeUS)
		}
	}
	// StripTimes zeroes in place.
	StripTimes(events)
	for i, e := range events {
		if e.TimeUS != 0 {
			t.Errorf("StripTimes left t_us %d on event %d", e.TimeUS, i)
		}
	}
}

func TestReadJSONLRejectsWrongSchema(t *testing.T) {
	in := `{"trace_schema":999}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("schema 999 accepted")
	} else if !strings.Contains(err.Error(), "999") {
		t.Errorf("schema error does not name the version: %v", err)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			TS    int64           `json:"ts"`
			PID   int             `json:"pid"`
			TID   int             `json:"tid"`
			Args  json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no traceEvents")
	}
	phases := map[string]int{}
	swaps := 0
	for _, e := range doc.TraceEvents {
		phases[e.Phase]++
		if strings.HasPrefix(e.Name, "SWAP") {
			swaps++
		}
	}
	if phases["M"] == 0 {
		t.Error("no metadata events (process/thread names) emitted")
	}
	if phases["B"] == 0 || phases["E"] == 0 {
		t.Error("no duration events for pass brackets")
	}
	if phases["B"] != phases["E"] {
		t.Errorf("unbalanced pass brackets: %d B vs %d E", phases["B"], phases["E"])
	}
	if phases["i"] == 0 {
		t.Error("no instant events for decisions")
	}
	if swaps == 0 {
		t.Error("no SWAP instants in the chrome export")
	}
}

func TestExplainRendersHeatmapAndTimeline(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	WriteExplain(&buf, events)
	out := buf.String()
	for _, want := range []string{"toy", "SWAP", "layer", "fallback"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestDOTOutputIsWellFormed(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	WriteDOT(&buf, events)
	out := buf.String()
	if !strings.HasPrefix(out, "graph ") {
		t.Errorf("DOT output does not start with a graph declaration:\n%s", out)
	}
	if !strings.Contains(out, "2 -- 3") && !strings.Contains(out, "3 -- 2") {
		t.Errorf("DOT output missing the swapped edge 2-3:\n%s", out)
	}
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Errorf("unbalanced braces in DOT output:\n%s", out)
	}
}
