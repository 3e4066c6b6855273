package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Live request inspector: the answer to "what is this server doing right
// now, and what did it just do?". Every compile request registers here at
// arrival and moves into a fixed-size ring of recently finished requests at
// completion, so GET /debug/requests shows the active set plus the recent
// history without any log pipeline. Records share the wide-event field
// vocabulary (obsv.Field*), and a record's ID equals the X-Request-ID
// header, the req_id of the canonical log line and the request_id of the
// trace meta event — one ID joins all four surfaces.

// RequestRecord is one request's observable state, as served by
// /debug/requests. JSON field names match the wide-event field registry
// where the two overlap.
type RequestRecord struct {
	ID        string `json:"id"`
	StartedAt string `json:"started_at"`
	// AgeMS is filled at snapshot time for active requests (how long the
	// request has been in flight when the inspector was read).
	AgeMS           float64 `json:"age_ms,omitempty"`
	Device          string  `json:"device,omitempty"`
	Preset          string  `json:"preset,omitempty"`
	PresetEffective string  `json:"preset_effective,omitempty"`
	CacheHit        bool    `json:"cache_hit"`
	SkeletonHit     bool    `json:"skeleton_hit,omitempty"`
	Shared          bool    `json:"singleflight_shared,omitempty"`
	QueueWaitMS     float64 `json:"queue_wait_ms,omitempty"`
	Breaker         string  `json:"breaker,omitempty"`
	FallbackDepth   int     `json:"fallback_depth,omitempty"`
	Attempts        int     `json:"attempts,omitempty"`
	MapMS           float64 `json:"map_ms,omitempty"`
	OrderMS         float64 `json:"order_ms,omitempty"`
	RouteMS         float64 `json:"route_ms,omitempty"`
	DurationMS      float64 `json:"duration_ms,omitempty"`
	Outcome         string  `json:"outcome,omitempty"`
	HTTPStatus      int     `json:"http_status,omitempty"`
	Err             string  `json:"err,omitempty"`
	Swaps           int     `json:"swaps,omitempty"`
	Depth           int     `json:"depth,omitempty"`
	Gates           int     `json:"gates,omitempty"`
	// The phases of a successful request, from the handler's clock reads:
	// decode and parse, cache lookup, angle bind, rendering and response
	// framing, response write. A request that waited on a compile flight
	// reports the flight under QueueWaitMS and the pass times instead.
	DecodeMS float64 `json:"decode_ms,omitempty"`
	LookupMS float64 `json:"lookup_ms,omitempty"`
	BindMS   float64 `json:"bind_ms,omitempty"`
	RenderMS float64 `json:"render_ms,omitempty"`
	WriteMS  float64 `json:"write_ms,omitempty"`
	// Trace carries the compile's decision-level trace events when the
	// server runs with Config.TraceRequests (cache hits replay the events
	// of the compile that filled the entry).
	Trace []trace.Event `json:"trace,omitempty"`

	started time.Time
}

// inspector tracks active requests and a ring of recently finished ones.
// All record state lives behind the mutex: handlers never share record
// pointers with readers, so /debug/requests can be scraped mid-storm under
// the race detector.
type inspector struct {
	mu     sync.Mutex
	active map[string]*RequestRecord
	ring   []RequestRecord // ring[next-1] is the newest finished record
	next   int
	filled bool
	total  uint64
}

func newInspector(recent int) *inspector {
	if recent <= 0 {
		recent = 64
	}
	return &inspector{active: make(map[string]*RequestRecord), ring: make([]RequestRecord, 0, recent)}
}

// begin registers an arriving request in the active set.
func (ins *inspector) begin(rec RequestRecord) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	r := rec
	ins.active[rec.ID] = &r
	ins.total++
}

// update mutates the active record (parse results arriving after begin).
// No-op when the request already finished.
func (ins *inspector) update(id string, f func(*RequestRecord)) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if r, ok := ins.active[id]; ok {
		f(r)
	}
}

// end removes the request from the active set and pushes its final record
// onto the recent ring, overwriting the oldest entry once full.
func (ins *inspector) end(id string, final RequestRecord) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	delete(ins.active, id)
	if cap(ins.ring) == 0 {
		return
	}
	if len(ins.ring) < cap(ins.ring) {
		ins.ring = append(ins.ring, final)
		ins.next = len(ins.ring) % cap(ins.ring)
		ins.filled = len(ins.ring) == cap(ins.ring)
		return
	}
	ins.ring[ins.next] = final
	ins.next = (ins.next + 1) % cap(ins.ring)
}

// snapshot copies the active set (sorted by start time, oldest first, with
// AgeMS filled) and the recent ring (newest first).
func (ins *inspector) snapshot(now time.Time) (active, recent []RequestRecord) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	active = make([]RequestRecord, 0, len(ins.active))
	for _, r := range ins.active {
		c := *r
		c.AgeMS = durMS(now.Sub(c.started))
		active = append(active, c)
	}
	sort.Slice(active, func(i, j int) bool {
		if !active[i].started.Equal(active[j].started) {
			return active[i].started.Before(active[j].started)
		}
		return active[i].ID < active[j].ID
	})
	n := len(ins.ring)
	recent = make([]RequestRecord, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the newest entry.
		idx := (ins.next - 1 - i + n) % n
		recent = append(recent, ins.ring[idx])
	}
	return active, recent
}

// activeCount reports how many requests are currently registered — the
// chaos harness asserts this drains to zero after a storm (no leaked
// records).
func (ins *inspector) activeCount() int {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return len(ins.active)
}

// totalCount reports how many requests ever registered.
func (ins *inspector) totalCount() uint64 {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	return ins.total
}

// inspectorPage is the JSON body of GET /debug/requests.
type inspectorPage struct {
	Total  uint64          `json:"total_requests"`
	Active []RequestRecord `json:"active"`
	Recent []RequestRecord `json:"recent"`
}

// handle serves GET /debug/requests: JSON by default, a terminal-friendly
// table with ?format=text.
func (ins *inspector) handle(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	active, recent := ins.snapshot(now)
	page := inspectorPage{Total: ins.totalCount(), Active: active, Recent: recent}
	if active == nil {
		page.Active = []RequestRecord{}
	}
	if recent == nil {
		page.Recent = []RequestRecord{}
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeInspectorText(w, page)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

func writeInspectorText(w http.ResponseWriter, page inspectorPage) {
	fmt.Fprintf(w, "requests: %d total, %d active, %d recent\n\n", page.Total, len(page.Active), len(page.Recent))
	fmt.Fprintf(w, "ACTIVE\n")
	if len(page.Active) == 0 {
		fmt.Fprintf(w, "  (none)\n")
	}
	for _, r := range page.Active {
		fmt.Fprintf(w, "  %-28s age=%8.1fms preset=%-8s device=%s\n", r.ID, r.AgeMS, orDash(r.Preset), orDash(r.Device))
	}
	fmt.Fprintf(w, "\nRECENT (newest first)\n")
	if len(page.Recent) == 0 {
		fmt.Fprintf(w, "  (none)\n")
	}
	for _, r := range page.Recent {
		cache := "miss"
		if r.CacheHit {
			cache = "hit"
		}
		fmt.Fprintf(w, "  %-28s %4d %-14s %8.1fms cache=%-4s preset=%s->%s queue=%.1fms attempts=%d\n",
			r.ID, r.HTTPStatus, r.Outcome, r.DurationMS, cache,
			orDash(r.Preset), orDash(r.PresetEffective), r.QueueWaitMS, r.Attempts)
		if r.Err != "" {
			fmt.Fprintf(w, "      err: %s\n", strings.ReplaceAll(r.Err, "\n", " "))
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// durMS converts a duration to fractional milliseconds, the time unit every
// latency surface of the service shares.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
