// Package trace is the compiler's decision-level introspection layer: a
// nil-safe, schema-versioned structured event stream that the mapping,
// ordering, routing, stitching and fallback passes emit their individual
// decisions into — which logical qubit was placed where and why, which
// CPhase terms formed a layer at what live distance, every SWAP with the
// layout it transformed and the distance it paid, and every step of the
// graceful-degradation ladder.
//
// It mirrors the obsv.Collector idiom: every method on a nil *Tracer is a
// no-op that performs no allocation and reads no clock, so instrumented
// code costs nothing when tracing is disabled. Unlike the collector's
// aggregate counters, the tracer keeps the full ordered event sequence, so
// a bad layout or a surprising fallback can be explained after the fact
// (the paper's Fig. 5/6 reasoning) instead of only counted.
//
// Three exporters consume the stream: WriteJSONL (one event per line,
// byte-deterministic under fixed seeds once timestamps are stripped, so it
// golden-tests), WriteChromeTrace (Chrome trace-event JSON openable in
// Perfetto or chrome://tracing, with one track per pass and SWAP instants)
// and WriteExplain/WriteDOT (terminal heatmap + layer timeline, Graphviz).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SchemaVersion identifies the event layout. Bump on any
// backwards-incompatible change to Event or its payload types.
const SchemaVersion = 1

// Kind discriminates the event payloads.
type Kind string

// Event kinds, in the order a typical compilation emits them.
const (
	// KindMeta opens a compilation: device shape, problem size, strategy.
	KindMeta Kind = "meta"
	// KindPassBegin / KindPassEnd bracket one run of a compile stage (map,
	// order, route, stitch, lower). Brackets are stamped with the compile's
	// own stage clock, so per stage they sum to compile.Times, and a compile
	// closes its last bracket on every return path, panics included.
	KindPassBegin Kind = "pass_begin"
	KindPassEnd   Kind = "pass_end"
	// KindPlacement is one initial-mapping decision.
	KindPlacement Kind = "placement"
	// KindLayer is one incremental layer-formation decision.
	KindLayer Kind = "layer"
	// KindSwap is one inserted SWAP.
	KindSwap Kind = "swap"
	// KindStitch is one partial-circuit stitch boundary.
	KindStitch Kind = "stitch"
	// KindFallback is one step of the degradation ladder.
	KindFallback Kind = "fallback"
)

// MetaInfo describes the compilation a trace belongs to, making the stream
// self-contained: the DOT and heatmap renderers read the coupling graph
// from here rather than needing the device object.
type MetaInfo struct {
	Device   string   `json:"device"`
	NQubits  int      `json:"n_qubits"`
	Coupling [][2]int `json:"coupling"`
	NLogical int      `json:"n_logical"`
	Mapper   string   `json:"mapper"`
	Strategy string   `json:"strategy"`
	// RequestID joins a service-originated trace to the request's other
	// observability surfaces (X-Request-ID header, wide-event log line,
	// /debug/requests inspector record). Empty for CLI compilations.
	RequestID string `json:"request_id,omitempty"`
}

// PlacementInfo records one initial-mapping choice: logical qubit Logical
// was placed on physical qubit Phys, which had connectivity strength
// Strength among Candidates scored alternatives. For neighbour-guided QAIM
// placements Score is the winning strength/cumulative-distance metric and
// PlacedNeighbors lists the physical positions of the already-placed
// logical neighbours that anchored the decision.
type PlacementInfo struct {
	Logical         int     `json:"logical"`
	Phys            int     `json:"phys"`
	Strength        int     `json:"strength"`
	Score           float64 `json:"score,omitempty"`
	Candidates      int     `json:"candidates"`
	PlacedNeighbors []int   `json:"placed_neighbors,omitempty"`
}

// TermInfo is one CPhase term selected into a layer, with its logical
// endpoints, their current physical positions, and the live distance
// (hops for IC, reliability-weighted for VIC) that ranked it.
type TermInfo struct {
	U    int     `json:"u"`
	V    int     `json:"v"`
	PU   int     `json:"pu"`
	PV   int     `json:"pv"`
	Dist float64 `json:"dist"`
}

// LayerInfo records one incremental layer-formation decision: the terms
// packed into layer Index of QAOA level Level, and how many remaining
// terms were deferred to later layers.
type LayerInfo struct {
	Index    int        `json:"index"`
	Level    int        `json:"level"`
	Terms    []TermInfo `json:"terms"`
	Deferred int        `json:"deferred"`
}

// SwapInfo records one inserted SWAP on physical qubits (P1, P2): the
// distance weight it paid (Cost — 1 for hop routing, the edge's
// reliability weight for VIC), the pending-distance improvement that
// justified it (Gain; 0 for forced path walks), and the full
// logical→physical layout before and after, so the layout history can be
// replayed step by step. RoutingLayer is the ASAP layer of the routed
// circuit the SWAP served.
type SwapInfo struct {
	P1           int     `json:"p1"`
	P2           int     `json:"p2"`
	Cost         float64 `json:"cost"`
	Gain         float64 `json:"gain,omitempty"`
	Forced       bool    `json:"forced,omitempty"`
	RoutingLayer int     `json:"routing_layer"`
	Before       []int   `json:"before"`
	After        []int   `json:"after"`
}

// StitchInfo records one partial-circuit stitch: incremental layer Layer
// contributed Gates gates (including Swaps SWAPs) to the output circuit.
type StitchInfo struct {
	Layer int `json:"layer"`
	Gates int `json:"gates"`
	Swaps int `json:"swaps"`
}

// FallbackInfo records one step of the degradation ladder: the preset that
// was attempted, the zero-based retry within its rung, and the error it
// failed with. Final marks the attempt that produced the returned circuit
// (Err empty).
type FallbackInfo struct {
	Preset string `json:"preset"`
	Retry  int    `json:"retry"`
	Err    string `json:"err,omitempty"`
	Final  bool   `json:"final,omitempty"`
}

// Event is one trace record. Exactly one payload pointer is non-nil,
// matching Kind; Pass carries the pass name for pass-bracket events and
// the owning pass for decision events. TimeUS is microseconds since the
// tracer was created — the only non-deterministic field, zeroed by
// StripTimes for byte-stable comparisons.
type Event struct {
	Seq       int            `json:"seq"`
	TimeUS    int64          `json:"t_us"`
	Kind      Kind           `json:"kind"`
	Pass      string         `json:"pass,omitempty"`
	Meta      *MetaInfo      `json:"meta,omitempty"`
	Placement *PlacementInfo `json:"placement,omitempty"`
	Layer     *LayerInfo     `json:"layer,omitempty"`
	Swap      *SwapInfo      `json:"swap,omitempty"`
	Stitch    *StitchInfo    `json:"stitch,omitempty"`
	Fallback  *FallbackInfo  `json:"fallback,omitempty"`
}

// Tracer accumulates the ordered event stream. The zero value is not
// usable; construct with New. A nil *Tracer is a valid disabled tracer:
// all methods no-op. A non-nil Tracer is safe for concurrent use, though a
// single compilation emits sequentially.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// New returns an empty enabled tracer whose clock starts now.
func New() *Tracer { return &Tracer{start: time.Now()} } //lint:allow determinism: trace epoch; timestamps are stripped for deterministic comparison

// Enabled reports whether the tracer records anything (i.e. is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// emit stamps one event with the tracer's clock and appends it.
func (t *Tracer) emit(e Event) {
	t.emitAt(time.Now(), e) //lint:allow determinism: event timestamp; stripped by StripTimes before comparison
}

// emitAt appends one event stamped at the given reading.
func (t *Tracer) emitAt(at time.Time, e Event) {
	t.mu.Lock()
	e.Seq = len(t.events)
	e.TimeUS = at.Sub(t.start).Microseconds()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Meta records the compilation's identity; call once at the start.
func (t *Tracer) Meta(m MetaInfo) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindMeta, Meta: &m})
}

// Pass marks a stage boundary at the caller's clock reading at: it closes
// the bracket of pass end and opens one for pass begin. An empty name skips
// that half. Stamping both with the caller's reading makes a bracket's
// duration the time the caller charged to the pass, to the microsecond.
func (t *Tracer) Pass(end, begin string, at time.Time) {
	if t == nil {
		return
	}
	if end != "" {
		t.emitAt(at, Event{Kind: KindPassEnd, Pass: end})
	}
	if begin != "" {
		t.emitAt(at, Event{Kind: KindPassBegin, Pass: begin})
	}
}

// Placement records one initial-mapping decision (map pass).
func (t *Tracer) Placement(p PlacementInfo) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindPlacement, Pass: "map", Placement: &p})
}

// Layer records one incremental layer-formation decision (order pass).
func (t *Tracer) Layer(l LayerInfo) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindLayer, Pass: "order", Layer: &l})
}

// Swap records one inserted SWAP (route pass).
func (t *Tracer) Swap(s SwapInfo) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindSwap, Pass: "route", Swap: &s})
}

// Stitch records one partial-circuit stitch boundary (stitch pass).
func (t *Tracer) Stitch(s StitchInfo) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindStitch, Pass: "stitch", Stitch: &s})
}

// Fallback records one step of the degradation ladder.
func (t *Tracer) Fallback(f FallbackInfo) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindFallback, Pass: "fallback", Fallback: &f})
}

// Len returns the number of recorded events (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded stream (nil on a nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Reset discards every recorded event and restarts the clock. No-op on nil.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = nil
	t.start = time.Now() //lint:allow determinism: trace epoch reset; timestamps are stripped for comparison
	t.mu.Unlock()
}

// StripTimes zeroes the timestamp of every event in place — the only
// non-deterministic field — so two fixed-seed traces compare byte for
// byte.
func StripTimes(events []Event) {
	for i := range events {
		events[i].TimeUS = 0
	}
}

// Header is the first line of a JSONL export, identifying the schema.
type Header struct {
	TraceSchema int `json:"trace_schema"`
}

// WriteJSONL writes the stream as JSON Lines: a schema header line
// followed by one event per line, in emission order. With strip true the
// timestamps are zeroed in the output (the events slice is not modified),
// making the stream byte-identical across fixed-seed runs.
func WriteJSONL(w io.Writer, events []Event, strip bool) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(Header{TraceSchema: SchemaVersion}); err != nil {
		return fmt.Errorf("trace: writing JSONL header: %w", err)
	}
	for _, e := range events {
		if strip {
			e.TimeUS = 0
		}
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: writing JSONL event %d: %w", e.Seq, err)
		}
	}
	return nil
}

// ReadJSONL parses a stream produced by WriteJSONL, checking the schema.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var h Header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: reading JSONL header: %w", err)
	}
	if h.TraceSchema != SchemaVersion {
		return nil, fmt.Errorf("trace: stream schema %d, this build reads %d", h.TraceSchema, SchemaVersion)
	}
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: reading JSONL event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
