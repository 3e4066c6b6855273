package obsv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Progress is a point-in-time description of a long-running sweep, served by
// the /healthz endpoint so an operator can see how far along a run is without
// waiting for the final report.
type Progress struct {
	// Phase names what is currently running (e.g. "fig7", "fig9a", "bench").
	Phase string `json:"phase,omitempty"`
	// Done and Total count finished vs planned work items in the current
	// phase; Total 0 means the size is unknown.
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
}

// ProgressFunc reports live sweep progress for /healthz. It must be safe for
// concurrent calls; nil means no progress is reported.
type ProgressFunc func() Progress

// ReadyFunc reports whether the process is ready to take traffic, with a
// human-readable reason when it is not (e.g. "warming up", "draining"). It
// must be safe for concurrent calls; nil means always ready. Liveness
// (/healthz) and readiness (/readyz) are deliberately distinct probes: a
// draining or warming server is alive but must not receive new work, so
// orchestrators restart on failed liveness and only unroute on failed
// readiness.
type ReadyFunc func() (bool, string)

// Handler serves the live state of one Collector over HTTP:
//
//	/metrics      Prometheus text exposition of counters, gauges and spans
//	/healthz      JSON liveness + sweep progress (200 while the process runs)
//	/readyz       JSON readiness (503 while warming up or draining)
//	/debug/pprof  the standard runtime profiles
//
// Build one with NewHandler and mount it on any server; serve.ServeObs
// runs one on its own listener.
type Handler struct {
	col      *Collector
	progress ProgressFunc
	ready    ReadyFunc
	start    time.Time
	mux      *http.ServeMux

	mu  sync.Mutex
	slo *SLOConfig
}

// NewHandler builds a Handler over col (nil col serves empty metrics — the
// endpoint stays useful as a liveness probe even with observability off).
// ready gates /readyz; nil reports always ready.
func NewHandler(col *Collector, progress ProgressFunc, ready ReadyFunc) *Handler {
	h := &Handler{col: col, progress: progress, ready: ready, start: time.Now(), mux: http.NewServeMux()}
	h.mux.HandleFunc("/metrics", h.metrics)
	h.mux.HandleFunc("/healthz", h.healthz)
	h.mux.HandleFunc("/readyz", h.readyz)
	h.mux.HandleFunc("/debug/pprof/", pprof.Index)
	h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return h
}

// Mux exposes the underlying mux so servers can mount additional routes
// next to the standard observability endpoints.
func (h *Handler) Mux() *http.ServeMux { return h.mux }

// SetSLO enables SLO burn-rate gauges on /metrics, computed from the
// collector's availability counters and latency histograms at scrape time
// (see ComputeSLO). Safe to call concurrently with scrapes.
func (h *Handler) SetSLO(cfg SLOConfig) {
	cfg = cfg.WithDefaults()
	h.mu.Lock()
	h.slo = &cfg
	h.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := h.col.Snapshot()
	WriteMetricsText(w, snap)
	h.mu.Lock()
	slo := h.slo
	h.mu.Unlock()
	if slo != nil {
		WriteSLOText(w, snap, *slo)
	}
}

func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		Status   string    `json:"status"`
		UptimeMS int64     `json:"uptime_ms"`
		Progress *Progress `json:"progress,omitempty"`
	}{Status: "ok", UptimeMS: time.Since(h.start).Milliseconds()}
	if h.progress != nil {
		p := h.progress()
		resp.Progress = &p
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	ok, reason := true, ""
	if h.ready != nil {
		ok, reason = h.ready()
	}
	resp := struct {
		Status string `json:"status"`
		Reason string `json:"reason,omitempty"`
	}{Status: "ready"}
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		resp.Status = "not ready"
		resp.Reason = reason
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// WriteMetricsText renders a snapshot in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered. Counters become
// qaoa_<name>_total, gauges qaoa_<name>, and every span expands to
// qaoa_<name>_count, qaoa_<name>_seconds_sum, qaoa_<name>_seconds_min and
// qaoa_<name>_seconds_max; non-alphanumeric name characters map to '_'.
func WriteMetricsText(w interface{ Write([]byte) (int, error) }, snap Snapshot) {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m, m, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", m, m, snap.Gauges[name])
	}
	for _, s := range snap.Spans { // already sorted by name
		base := promName(s.Name)
		fmt.Fprintf(w, "# TYPE %s_count counter\n%s_count %d\n", base, base, s.Count)
		fmt.Fprintf(w, "# TYPE %s_seconds_sum counter\n%s_seconds_sum %g\n", base, base, s.TotalSec)
		fmt.Fprintf(w, "# TYPE %s_seconds_min gauge\n%s_seconds_min %g\n", base, base, s.MinSec)
		fmt.Fprintf(w, "# TYPE %s_seconds_max gauge\n%s_seconds_max %g\n", base, base, s.MaxSec)
	}
	for _, h := range snap.Hists { // already sorted by name
		base := promName(h.Name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", base)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", base, b, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", base, h.Count)
		fmt.Fprintf(w, "%s_sum %g\n", base, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", base, h.Count)
	}
}

// promName maps an internal metric name to a valid Prometheus metric name:
// the qaoa_ prefix plus the name with every character outside
// [a-zA-Z0-9_] replaced by '_' (so "compile/swaps" → "qaoa_compile_swaps").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("qaoa_") + len(name))
	b.WriteString("qaoa_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
