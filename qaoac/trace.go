package qaoac

import (
	"io"

	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Compilation tracing: the per-decision event stream behind qaoac's
// -trace/-explain flags. Set CompileOptions.Trace (or FallbackOptions.Trace)
// to a NewTracer, compile, then export the events with one of the writers
// below. All tracer methods are safe on nil, so leaving Trace unset costs
// nothing. See internal/trace for the schema.

// Tracer accumulates the ordered per-decision event stream of a
// compilation.
type Tracer = trace.Tracer

// TraceEvent is one record of the stream.
type TraceEvent = trace.Event

// NewTracer returns an empty enabled tracer.
func NewTracer() *Tracer { return trace.New() }

// WriteTraceJSONL writes events as JSON Lines (schema header + one event
// per line). With strip true the timestamps are zeroed, making fixed-seed
// streams byte-identical — the format the CI determinism gate diffs.
func WriteTraceJSONL(w io.Writer, events []TraceEvent, strip bool) error {
	return trace.WriteJSONL(w, events, strip)
}

// WriteChromeTrace exports events as Chrome trace-event JSON: open the file
// in https://ui.perfetto.dev or chrome://tracing to see per-pass tracks
// with SWAP/placement/layer instants.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChromeTrace(w, events)
}

// WriteTraceExplain renders the stream as a terminal report: placement
// rationale, per-edge SWAP heatmap, layer timeline and the fallback ladder.
func WriteTraceExplain(w io.Writer, events []TraceEvent) { trace.WriteExplain(w, events) }

// WriteTraceDOT renders the coupling graph as Graphviz DOT with edges
// colored by SWAP heat.
func WriteTraceDOT(w io.Writer, events []TraceEvent) { trace.WriteDOT(w, events) }

// Live observability endpoint (the -listen flag of qaoa-exp/qaoa-bench).

// ObsProgress is the sweep-progress payload of the /healthz endpoint.
type ObsProgress = obsv.Progress

// ObsServer is a running observability endpoint with readiness control
// (/readyz) and graceful Shutdown. See internal/serve.ObsServer.
type ObsServer = serve.ObsServer

// ServeObservability starts a hardened HTTP server on addr (":0" picks a
// free port) exposing the live collector as Prometheus text metrics on
// /metrics, a JSON liveness + progress probe on /healthz, a readiness
// probe on /readyz (503 "warming up" until SetReady(true, "") is called,
// 503 "draining" after Shutdown begins), and the standard runtime profiles
// under /debug/pprof. progress may be nil. Stop serving with Shutdown.
func ServeObservability(addr string, c *Collector, progress func() ObsProgress) (*ObsServer, error) {
	var pf obsv.ProgressFunc
	if progress != nil {
		pf = func() obsv.Progress { return progress() }
	}
	return serve.ServeObs(addr, c, pf)
}
