package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// as consumed by Perfetto and chrome://tracing. Only the fields the
// exporter uses are modeled.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object-form container Perfetto accepts.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track ids: one Perfetto track per pass, so the timeline shows mapping,
// ordering, routing, stitching, lowering and the fallback ladder as
// parallel lanes.
var chromeTracks = []struct {
	tid  int
	pass string
}{
	{1, "map"},
	{2, "order"},
	{3, "route"},
	{4, "stitch"},
	{5, "lower"},
	{6, "fallback"},
}

func chromeTID(pass string) int {
	for _, t := range chromeTracks {
		if t.pass == pass {
			return t.tid
		}
	}
	return 0
}

// WriteChromeTrace exports the stream as Chrome trace-event JSON: pass
// brackets become B/E duration slices on per-pass tracks, and every
// decision event (placement, layer, SWAP, stitch, fallback) becomes a
// thread-scoped instant on its pass's track carrying the full payload in
// args. Open the file in https://ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []Event) error {
	const pid = 1
	out := chromeTrace{DisplayTimeUnit: "ms"}

	// Name the process and tracks first so the UI labels the lanes.
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": "qaoa-compile"},
	})
	for _, t := range chromeTracks {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: t.tid,
			Args: map[string]any{"name": t.pass},
		})
	}

	for _, e := range events {
		switch e.Kind {
		case KindMeta:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "compilation", Phase: "i", TS: e.TimeUS, PID: pid, TID: chromeTID("map"), Scope: "p",
				Args: map[string]any{
					"device": e.Meta.Device, "n_qubits": e.Meta.NQubits,
					"n_logical": e.Meta.NLogical, "mapper": e.Meta.Mapper,
					"strategy": e.Meta.Strategy,
				},
			})
		case KindPassBegin:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Pass, Phase: "B", TS: e.TimeUS, PID: pid, TID: chromeTID(e.Pass),
			})
		case KindPassEnd:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Pass, Phase: "E", TS: e.TimeUS, PID: pid, TID: chromeTID(e.Pass),
			})
		case KindPlacement:
			p := e.Placement
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name:  fmt.Sprintf("place q%d→%d", p.Logical, p.Phys),
				Phase: "i", TS: e.TimeUS, PID: pid, TID: chromeTID("map"), Scope: "t",
				Args: map[string]any{
					"logical": p.Logical, "phys": p.Phys, "strength": p.Strength,
					"score": p.Score, "candidates": p.Candidates,
				},
			})
		case KindLayer:
			l := e.Layer
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name:  fmt.Sprintf("layer %d", l.Index),
				Phase: "i", TS: e.TimeUS, PID: pid, TID: chromeTID("order"), Scope: "t",
				Args: map[string]any{
					"index": l.Index, "level": l.Level,
					"terms": len(l.Terms), "deferred": l.Deferred,
				},
			})
		case KindSwap:
			s := e.Swap
			name := fmt.Sprintf("SWAP %d↔%d", s.P1, s.P2)
			if s.Forced {
				name += " (forced)"
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Phase: "i", TS: e.TimeUS, PID: pid, TID: chromeTID("route"), Scope: "t",
				Args: map[string]any{
					"p1": s.P1, "p2": s.P2, "cost": s.Cost, "gain": s.Gain,
					"forced": s.Forced, "routing_layer": s.RoutingLayer,
					"before": s.Before, "after": s.After,
				},
			})
		case KindStitch:
			st := e.Stitch
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name:  fmt.Sprintf("stitch layer %d", st.Layer),
				Phase: "i", TS: e.TimeUS, PID: pid, TID: chromeTID("stitch"), Scope: "t",
				Args: map[string]any{"layer": st.Layer, "gates": st.Gates, "swaps": st.Swaps},
			})
		case KindFallback:
			f := e.Fallback
			name := fmt.Sprintf("%s attempt %d failed", f.Preset, f.Retry)
			if f.Final {
				name = fmt.Sprintf("%s selected", f.Preset)
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Phase: "i", TS: e.TimeUS, PID: pid, TID: chromeTID("fallback"), Scope: "t",
				Args: map[string]any{"preset": f.Preset, "retry": f.Retry, "err": f.Err, "final": f.Final},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: writing chrome trace: %w", err)
	}
	return nil
}
