// Package serve implements qaoad, the QAOA compilation-as-a-service
// daemon: an HTTP/JSON server compiling the device/circuit/config trio of
// the original QAOA-Compiler input into hardware-compliant circuits, built
// for sustained multi-tenant traffic. Robustness is the core of the
// design, not a wrapper:
//
//   - a compiled-circuit LRU cache keyed on (canonical graph hash, device
//     revision, preset, calibration epoch), with singleflight deduplication
//     so concurrent identical requests compile exactly once and every
//     waiter receives byte-identical circuits;
//   - admission control: a bounded worker pool plus a bounded wait queue;
//     anything beyond both is shed immediately with 429 + Retry-After;
//   - per-preset circuit breakers that trip on failure-rate spikes (e.g. a
//     degraded device making VIC fail persistently) and route traffic down
//     the paper's own degradation ladder VIC → IC → IP → NAIVE while
//     half-open probes test recovery;
//   - per-request deadlines bounding each client's wait, a server-side
//     compile budget bounding each flight, and the retry/backoff ladder of
//     compile.CompileSpecResilient absorbing transient pass faults;
//   - graceful shutdown: readiness flips before the listener stops, then
//     in-flight flights drain under a deadline, then the lifecycle context
//     is cancelled and aborts whatever remains.
//
// See DESIGN.md §10 for the full robustness model.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/qasm"
	"repro/internal/trace"
)

// Config parameterizes a Server. The zero value is usable: sensible
// defaults are applied by New.
type Config struct {
	// Devices are the named devices available to device_name requests.
	// Nil installs the standard evaluation set (tokyo, melbourne,
	// falcon27, grid6x6).
	Devices map[string]*device.Device
	// Workers bounds concurrent compile flights (default 4).
	Workers int
	// Queue bounds flights waiting for a worker; beyond it requests are
	// shed (default 4×Workers).
	Queue int
	// QueueTimeout bounds how long a flight may wait for a worker before
	// it is shed (default DefaultDeadline).
	QueueTimeout time.Duration
	// CacheSize is the compiled-circuit LRU capacity (default 1024).
	CacheSize int
	// DefaultDeadline is the client wait budget when a request carries no
	// deadline_ms (default 30s). MaxDeadline caps client-supplied
	// deadlines (default 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CompileBudget bounds one compile flight wall-clock, independent of
	// any client's patience (default 1m).
	CompileBudget time.Duration
	// Retries, Backoff and AttemptTimeout configure the server-side
	// retry policy handed to compile.CompileSpecResilient (defaults: 1
	// retry per rung, 5ms backoff, AttemptTimeout = CompileBudget/2).
	Retries        int
	Backoff        time.Duration
	AttemptTimeout time.Duration
	// Breaker tunes the per-preset circuit breakers.
	Breaker BreakerConfig
	// Obs receives the serve/* metrics; nil disables collection.
	Obs *obsv.Collector
	// Now is the breaker clock (default time.Now); injectable for tests.
	Now func() time.Time
	// Hook is threaded into every compilation — the fault-injection seam
	// the chaos harness uses. Nil in production.
	Hook compile.Hook
	// Progress optionally feeds the /healthz progress payload.
	Progress obsv.ProgressFunc
	// Log receives one canonical wide-event line per request (build with
	// obsv.NewLogger); nil disables request logging.
	Log *slog.Logger
	// RecentRequests sizes the /debug/requests finished-request ring
	// (default 64).
	RecentRequests int
	// TraceRequests attaches a decision-level tracer to every compile
	// flight and stores the events on the inspector record — expensive, for
	// debugging sessions, not sustained production traffic.
	TraceRequests bool
	// SLO configures the burn-rate gauges on /metrics (zero fields take the
	// obsv.SLOConfig defaults).
	SLO obsv.SLOConfig
}

func (c Config) withDefaults() Config {
	if c.Devices == nil {
		c.Devices = map[string]*device.Device{
			"tokyo":     device.Tokyo20(),
			"melbourne": device.Melbourne15(),
			"falcon27":  device.Falcon27(),
			"grid6x6":   device.Grid(6, 6),
		}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.CompileBudget <= 0 {
		c.CompileBudget = time.Minute
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = c.DefaultDeadline
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 5 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = c.CompileBudget / 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// errAllBreakersOpen is the whole-ladder rejection: every rung's breaker
// is open, so no preset can even be attempted.
var errAllBreakersOpen = errors.New("serve: circuit breaker open for every preset of the ladder")

// Server is the qaoad compile service. Construct with New, mount Handler
// on an HTTP server, and call MarkReady once warm-up (if any) completes.
type Server struct {
	cfg       Config
	obs       *obsv.Collector
	log       *slog.Logger
	devices   *registry
	cache     *lru[*outcome]
	skels     *lru[*skelEntry]
	flights   *flightGroup
	adm       *admission
	breakers  *breakerSet
	inspector *inspector
	mux       *http.ServeMux

	idBase string
	reqSeq atomic.Uint64

	ready    atomic.Bool
	draining atomic.Bool

	baseCtx  context.Context
	cancel   context.CancelFunc
	flightWG sync.WaitGroup
}

// New builds a Server. The server starts not-ready: run any warm-up you
// want, then call MarkReady; /readyz reports 503 until then (and again
// while draining).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		obs:       cfg.Obs,
		log:       cfg.Log,
		devices:   newRegistry(),
		cache:     newCache(cfg.CacheSize, cfg.Obs),
		skels:     newSkelCache(cfg.CacheSize, cfg.Obs),
		flights:   newFlightGroup(),
		adm:       newAdmission(cfg.Workers, cfg.Queue, cfg.Obs),
		breakers:  newBreakerSet(cfg.Breaker, cfg.Now, cfg.Obs),
		inspector: newInspector(cfg.RecentRequests),
		// The ID base makes request IDs unique across restarts of the same
		// service without any coordination; the per-process counter makes
		// them unique within one.
		idBase: fmt.Sprintf("req-%08x", uint32(time.Now().UnixNano())),
	}
	for name, dev := range cfg.Devices {
		s.devices.register(name, dev)
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	obsHandler := obsv.NewHandler(cfg.Obs, cfg.Progress, s.Readiness)
	obsHandler.SetSLO(cfg.SLO)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/devices/{name}/calibration", s.handleCalibration)
	s.mux.HandleFunc("GET /v1/devices", s.handleDevices)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /debug/requests", s.inspector.handle)
	s.mux.Handle("/", obsHandler)
	return s
}

// ActiveRequests reports how many compile requests are currently registered
// with the live inspector — zero once the server has drained.
func (s *Server) ActiveRequests() int { return s.inspector.activeCount() }

// InspectorSnapshot returns copies of the inspector's active and recent
// request records, as /debug/requests would serve them.
func (s *Server) InspectorSnapshot() (active, recent []RequestRecord) {
	return s.inspector.snapshot(time.Now())
}

// mintRequestID returns the request's ID: a well-formed client-supplied
// X-Request-ID is honored (so callers can join service logs to their own),
// anything else gets a fresh server-minted ID.
func (s *Server) mintRequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// validRequestID bounds what the service echoes back into headers, logs and
// inspector pages: 1..64 chars of [A-Za-z0-9._-].
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Handler returns the server's HTTP handler (compile API + observability
// endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// MarkReady flips /readyz to 200 and starts admitting compile requests.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Readiness implements the /readyz probe: not ready while warming up or
// draining.
func (s *Server) Readiness() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if !s.ready.Load() {
		return false, "warming up"
	}
	return true, ""
}

// drainGrace bounds how long Drain waits, after aborting stragglers, for
// their goroutines to observe the canceled lifecycle context and unwind.
const drainGrace = 250 * time.Millisecond

// Drain stops admitting new compile requests (readiness goes false, new
// compiles get 503) and waits for in-flight compile flights to finish,
// bounded by ctx. On ctx expiry the remaining flights are aborted through
// the lifecycle context and Drain returns the ctx error. A flight wedged
// in a pass that ignores its context cannot be aborted in-process; Drain
// gives it drainGrace to unwind and then returns anyway, on the premise
// that the caller is about to exit the process.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.flightWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.cancel() // abort stragglers; their waiters get the ctx error
	select {
	case <-done:
	case <-time.After(drainGrace):
	}
	return fmt.Errorf("serve: drain deadline: %w", ctx.Err())
}

// Close aborts every in-flight flight immediately. Safe after Drain.
func (s *Server) Close() { s.cancel() }

// CacheLen reports the number of cached compiled circuits.
func (s *Server) CacheLen() int { return s.cache.len() }

// SkeletonCacheLen reports the number of cached routed skeletons.
func (s *Server) SkeletonCacheLen() int { return s.skels.len() }

// RegisterDevice adds (or replaces) a named device at calibration epoch 0
// and invalidates any cache entries — compiled outcomes and routed
// skeletons — of the name's previous registration.
func (s *Server) RegisterDevice(name string, dev *device.Device) {
	s.devices.register(name, dev)
	s.cache.invalidateDevice(name)
	s.skels.invalidateDevice(name)
}

// ReloadCalibration installs a new calibration for a registered device,
// bumping its calibration epoch and invalidating exactly the cache entries
// compiled against that device, across both tiers. It returns the new
// epoch and how many entries were invalidated (outcomes plus skeletons).
func (s *Server) ReloadCalibration(name string, cal *device.Calibration) (epoch int64, invalidated int, err error) {
	epoch, err = s.devices.reload(name, cal)
	if err != nil {
		return 0, 0, err
	}
	invalidated = s.cache.invalidateDevice(name)
	invalidated += s.skels.invalidateDevice(name)
	s.obs.Inc(obsv.CntServeCalibReloads)
	return epoch, invalidated, nil
}

// reqState is the handler-local observable state of one request: the
// record-in-progress plus its start instant. It is owned by the handler
// goroutine; the inspector only ever receives copies.
type reqState struct {
	rec   RequestRecord
	start time.Time
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.obs.Inc(obsv.CntServeRequests)
	span := s.obs.StartSpan(obsv.SpanServeRequest)
	defer span.End()

	id := s.mintRequestID(r)
	w.Header().Set("X-Request-ID", id)
	start := time.Now()
	rs := &reqState{start: start, rec: RequestRecord{
		ID:        id,
		StartedAt: start.UTC().Format(time.RFC3339Nano),
		started:   start,
	}}
	s.inspector.begin(rs.rec)

	if ok, reason := s.Readiness(); !ok {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Status: "error", Kind: "draining", Error: "server not accepting work: " + reason})
		s.finishRequest(rs, http.StatusServiceUnavailable, "draining", reason)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, maxBodyLen)
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.obs.Inc(obsv.CntServeBadRequests)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request", Error: "decoding request: " + err.Error()})
		s.finishRequest(rs, http.StatusBadRequest, "bad_request", "decoding request: "+err.Error())
		return
	}
	p, err := s.parseRequest(&req)
	if err != nil {
		s.obs.Inc(obsv.CntServeBadRequests)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request", Error: err.Error()})
		s.finishRequest(rs, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	rs.rec.Device = p.devName
	rs.rec.Preset = p.preset.String()
	s.obs.Inc(obsv.CntServePresetRequests(rs.rec.Preset))
	s.inspector.update(id, func(rec *RequestRecord) {
		rec.Device = rs.rec.Device
		rec.Preset = rs.rec.Preset
	})

	if out, ok := s.cache.get(p.key); ok {
		s.obs.Inc(obsv.CntServeOK)
		rs.rec.CacheHit = true
		rs.fillOutcome(out)
		writeJSON(w, http.StatusOK, buildResponse(p, out, true))
		s.finishRequest(rs, http.StatusOK, "ok", "")
		return
	}

	// Skeleton tier: a full-key miss with a cached routed skeleton for the
	// same angle-free structure is still a cache hit — binding the angles
	// costs microseconds, not a routing pass. The bound outcome fills the
	// full-key tier so the exact-angle repeat is a first-tier hit.
	if p.skelKey != "" {
		if se, ok := s.skels.get(p.skelKey); ok {
			out, err := s.bindOutcome(p, se)
			if err != nil {
				s.obs.Inc(obsv.CntServeErrors)
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{Status: "error", Kind: "compile_failed", Error: err.Error()})
				s.finishRequest(rs, http.StatusInternalServerError, "compile_failed", err.Error())
				return
			}
			s.cache.put(p.key, p.deviceID, out)
			s.obs.Inc(obsv.CntServeOK)
			rs.rec.CacheHit = true
			rs.rec.SkeletonHit = true
			rs.fillOutcome(out)
			writeJSON(w, http.StatusOK, buildResponse(p, out, true))
			s.finishRequest(rs, http.StatusOK, "ok", "")
			return
		}
	}

	// Client wait budget: request deadline_ms, clamped, else the default.
	wait := s.cfg.DefaultDeadline
	if p.wait > 0 {
		wait = p.wait
	}
	if wait > s.cfg.MaxDeadline {
		wait = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()

	f, leader := s.flights.join(p.flightKey())
	if leader {
		s.flightWG.Add(1)
		go s.runFlight(p, f, id)
	} else {
		s.obs.Inc(obsv.CntServeSingleflightShared)
		rs.rec.Shared = true
	}

	select {
	case <-f.done:
		s.respondFlight(w, p, f, rs)
	case <-ctx.Done():
		if r.Context().Err() != nil {
			// The client went away; nobody is listening to this response.
			s.obs.Inc(obsv.CntServeClientGone)
			s.finishRequest(rs, 0, "client_gone", "")
			return
		}
		s.obs.Inc(obsv.CntServeDeadlineExceeded)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Status: "error", Kind: "deadline", Error: "deadline exceeded waiting for compilation (the flight continues server-side)"})
		s.finishRequest(rs, http.StatusGatewayTimeout, "deadline", "deadline exceeded waiting for compilation")
	}
}

// fillOutcome copies a compiled outcome's observable facts onto the request
// record. The per-pass times are not among them: only a request that waited
// on the compile flight reports those (see respondFlight), so a cache hit
// shows map/order/route at zero instead of the original compile's cost.
func (rs *reqState) fillOutcome(out *outcome) {
	rs.rec.PresetEffective = out.effective
	rs.rec.Attempts = out.attempts
	rs.rec.FallbackDepth = out.fallbackDepth
	rs.rec.Swaps = out.swaps
	rs.rec.Depth = out.depth
	rs.rec.Gates = out.gates
	rs.rec.Trace = out.trace
}

// finishRequest closes out one request's observability: final inspector
// record, latency histograms, per-preset availability accounting, and the
// canonical wide-event log line. Called exactly once per request, after the
// response was written.
func (s *Server) finishRequest(rs *reqState, status int, outcome, errMsg string) {
	rec := &rs.rec
	rec.DurationMS = durMS(time.Since(rs.start))
	rec.Outcome = outcome
	rec.HTTPStatus = status
	rec.Err = errMsg
	s.inspector.end(rec.ID, rs.rec)

	s.obs.Observe(obsv.HistServeRequestMS, rec.DurationMS)
	if rec.Preset != "" {
		s.obs.Observe(obsv.HistServePresetMS(rec.Preset), rec.DurationMS)
		if outcome == "compile_failed" {
			s.obs.Inc(obsv.CntServePresetErrors(rec.Preset))
		}
	}
	if outcome == "ok" {
		if rec.CacheHit {
			s.obs.Observe(obsv.HistServeRequestCachedMS, rec.DurationMS)
		} else {
			s.obs.Observe(obsv.HistServeRequestUncachedMS, rec.DurationMS)
		}
	}

	if s.log == nil {
		return
	}
	ev := (&obsv.WideEvent{}).
		Str(obsv.FieldReqID, rec.ID).
		Str(obsv.FieldDevice, rec.Device).
		Str(obsv.FieldPreset, rec.Preset).
		Str(obsv.FieldPresetUsed, rec.PresetEffective).
		Bool(obsv.FieldCacheHit, rec.CacheHit).
		Bool(obsv.FieldSkeletonHit, rec.SkeletonHit).
		Bool(obsv.FieldShared, rec.Shared).
		Float(obsv.FieldQueueWaitMS, rec.QueueWaitMS).
		Str(obsv.FieldBreakerState, rec.Breaker).
		Int(obsv.FieldFallbackDepth, int64(rec.FallbackDepth)).
		Int(obsv.FieldAttempts, int64(rec.Attempts)).
		Float(obsv.FieldMapMS, rec.MapMS).
		Float(obsv.FieldOrderMS, rec.OrderMS).
		Float(obsv.FieldRouteMS, rec.RouteMS).
		Float(obsv.FieldDurationMS, rec.DurationMS).
		Str(obsv.FieldOutcome, rec.Outcome).
		Int(obsv.FieldHTTPStatus, int64(rec.HTTPStatus)).
		Int(obsv.FieldSwaps, int64(rec.Swaps)).
		Int(obsv.FieldDepth, int64(rec.Depth)).
		Int(obsv.FieldGates, int64(rec.Gates))
	if rec.Err != "" {
		ev.Str(obsv.FieldErr, rec.Err)
	}
	ev.Emit(s.log, obsv.WideEventMsgRequest)
}

// respondFlight translates a finished flight into this waiter's HTTP
// response. Counters are per response, so shed/error accounting matches
// what clients observed exactly.
func (s *Server) respondFlight(w http.ResponseWriter, p *parsedRequest, f *flight, rs *reqState) {
	rs.rec.QueueWaitMS = durMS(f.queueWait)
	rs.rec.Breaker = f.breaker
	switch {
	case f.err == nil:
		out := f.out
		if out == nil && f.skel != nil {
			// Skeleton flight: this waiter binds its own angles — possibly
			// different from every other waiter's — and caches the bound
			// outcome under its own full key.
			var err error
			out, err = s.bindOutcome(p, f.skel)
			if err != nil {
				s.obs.Inc(obsv.CntServeErrors)
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{Status: "error", Kind: "compile_failed", Error: err.Error()})
				s.finishRequest(rs, http.StatusInternalServerError, "compile_failed", err.Error())
				return
			}
			s.cache.put(p.key, p.deviceID, out)
		}
		s.obs.Inc(obsv.CntServeOK)
		rs.fillOutcome(out)
		rs.rec.MapMS = durMS(out.mapTime)
		rs.rec.OrderMS = durMS(out.orderTime)
		rs.rec.RouteMS = durMS(out.routeTime)
		writeJSON(w, http.StatusOK, buildResponse(p, out, false))
		s.finishRequest(rs, http.StatusOK, "ok", "")
	case errors.Is(f.err, errShed):
		s.obs.Inc(obsv.CntServeShed)
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Status: "error", Kind: "shed", Error: "compile queue full"})
		s.finishRequest(rs, http.StatusTooManyRequests, "shed", f.err.Error())
	case errors.Is(f.err, errAllBreakersOpen):
		s.obs.Inc(obsv.CntServeBreakerRejected)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Status: "error", Kind: "breaker_open", Error: f.err.Error()})
		s.finishRequest(rs, http.StatusServiceUnavailable, "breaker_open", f.err.Error())
	case errors.Is(f.err, context.DeadlineExceeded), errors.Is(f.err, context.Canceled):
		s.obs.Inc(obsv.CntServeDeadlineExceeded)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Status: "error", Kind: "deadline", Error: f.err.Error()})
		s.finishRequest(rs, http.StatusGatewayTimeout, "deadline", f.err.Error())
	default:
		s.obs.Inc(obsv.CntServeErrors)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Status: "error", Kind: "compile_failed", Error: f.err.Error()})
		s.finishRequest(rs, http.StatusInternalServerError, "compile_failed", f.err.Error())
	}
}

// runFlight is the singleflight leader: admission, breaker routing, the
// resilient compile itself, cache fill, waiter wake-up. It runs detached
// from any single request's context — clients bound their own wait, never
// each other's compile — under the server lifecycle context and compile
// budget. reqID is the ID of the request that opened the flight; it is
// threaded through the compile context so the trace stream's meta event
// joins the flight back to that request (waiters of the same flight share
// the leader's compilation and therefore its trace).
//
// Skeleton-eligible flights (every non-optimize request) compile the
// angle-free routed skeleton and publish it on the flight; each waiter then
// binds its own angles in respondFlight. Optimize flights keep the concrete
// compile and publish the finished outcome.
func (s *Server) runFlight(p *parsedRequest, f *flight, reqID string) {
	defer s.flightWG.Done()
	fkey := p.flightKey()

	qstart := time.Now()
	qctx, qcancel := context.WithTimeout(s.baseCtx, s.cfg.QueueTimeout)
	release, err := s.adm.acquire(qctx)
	qcancel()
	f.queueWait = time.Since(qstart)
	s.obs.Observe(obsv.HistServeQueueWaitMS, durMS(f.queueWait))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Waiting a full queue timeout without reaching a worker is
			// overload, same as an instantly full queue.
			err = errShed
		}
		s.flights.finish(fkey, f, nil, err)
		return
	}
	defer release()

	start, rerouted, ok := s.breakers.route(p.preset)
	if state, _, _ := s.breakers.byPreset[p.preset].snapshot(); state != "" {
		f.breaker = state
	}
	if !ok {
		s.flights.finish(fkey, f, nil, errAllBreakersOpen)
		return
	}

	s.obs.Inc(obsv.CntServeCompiles)
	cspan := s.obs.StartSpan(obsv.SpanServeCompile)
	cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.CompileBudget)
	defer cancel()
	cctx = obsv.WithRequestID(cctx, reqID)
	var tr *trace.Tracer
	if s.cfg.TraceRequests {
		tr = trace.New()
	}
	fo := compile.FallbackOptions{
		Retries:        s.cfg.Retries,
		Backoff:        s.cfg.Backoff,
		AttemptTimeout: s.cfg.AttemptTimeout,
		Seed:           p.seed,
		PackingLimit:   p.packing,
		Optimize:       p.optimize,
		Hook:           s.cfg.Hook,
		Obs:            s.obs,
		Trace:          tr,
	}
	var out *outcome
	var fb *compile.FallbackInfo
	if p.skelKey != "" {
		var sk *compile.Skeleton
		sk, err = compile.CompileSkeletonResilient(cctx, p.paramSpec, p.dev, start, fo)
		if err == nil {
			fb = sk.Fallback()
			f.skel = &skelEntry{skel: sk, start: start, rerouted: rerouted, trace: tr.Events()}
			s.skels.put(p.skelKey, p.deviceID, f.skel)
		}
	} else {
		var res *compile.Result
		res, err = compile.CompileSpecResilient(cctx, p.spec, p.dev, start, fo)
		if err == nil {
			fb = res.Fallback
			out = buildOutcome(p, res, start, rerouted, tr.Events())
			s.cache.put(p.key, p.deviceID, out)
		}
	}
	cspan.End()

	s.breakers.observe(fb, attemptsOf(fb, err, start))
	if err != nil {
		s.flights.finish(fkey, f, nil, err)
		return
	}
	s.flights.finish(fkey, f, out, nil)
}

// bindBufs pools bind buffers across requests: a bind writes the angles
// into a reused preallocated gate buffer, and buildOutcome copies
// everything it keeps, so the buffer is safe to recycle as soon as the
// outcome is built.
var bindBufs = sync.Pool{New: func() any { return new(compile.BindBuffer) }}

// bindOutcome materializes one request's angles over a cached routed
// skeleton and freezes the result into an immutable outcome — the
// skeleton-tier equivalent of a compile flight, minus all the routing work.
func (s *Server) bindOutcome(p *parsedRequest, se *skelEntry) (*outcome, error) {
	buf := bindBufs.Get().(*compile.BindBuffer)
	defer bindBufs.Put(buf)
	res, err := se.skel.BindTo(buf, qaoa.Params{Gamma: p.gamma, Beta: p.beta})
	if err != nil {
		return nil, err
	}
	//lint:allow poolsafe: buildOutcome deep-copies everything it keeps (strings, fresh layout slices); nothing in the outcome aliases buf — TestBindOutcomeCopiesPooledBuffer guards this
	return buildOutcome(p, res, se.start, se.rerouted, se.trace), nil
}

// attemptsOf extracts the failed-attempt list from a compile's fallback
// info or error so every failure is charged to the preset that produced
// it. A failure that carries no attempt breakdown (e.g. a deadline abort
// before any rung finished) is charged to the starting rung.
func attemptsOf(fb *compile.FallbackInfo, err error, start compile.Preset) []compile.Attempt {
	if fb != nil {
		return fb.Attempts
	}
	var ladderErr *compile.LadderError
	if errors.As(err, &ladderErr) {
		return ladderErr.Attempts
	}
	if err != nil {
		return []compile.Attempt{{Preset: start, Err: err.Error()}}
	}
	return nil
}

// buildOutcome freezes a compile result into the immutable cached
// artifact.
func buildOutcome(p *parsedRequest, res *compile.Result, start compile.Preset, rerouted bool, trEvents []trace.Event) *outcome {
	out := &outcome{
		circuitText:   res.Circuit.String(),
		qasm:          qasm.Export(res.Native),
		swaps:         res.SwapCount,
		depth:         res.Depth,
		gates:         res.GateCount,
		initial:       layoutSlice(res.Initial),
		final:         layoutSlice(res.Final),
		requested:     p.preset.String(),
		effective:     res.Fallback.Effective.String(),
		deviceName:    p.devName,
		deviceID:      p.deviceID,
		attempts:      len(res.Fallback.Attempts),
		fallbackDepth: fallbackDepth(res.Fallback.Attempts),
		mapTime:       res.MapTime,
		orderTime:     res.OrderTime,
		routeTime:     res.RouteTime,
		trace:         trEvents,
	}
	out.degraded = rerouted || res.Fallback.Degraded
	switch {
	case res.Fallback.Degraded && res.Fallback.Reason != "":
		out.degradedWhy = res.Fallback.Reason
	case rerouted:
		out.degradedWhy = fmt.Sprintf("circuit breaker open for %s; started at %s", p.preset, start)
	}
	return out
}

// fallbackDepth counts how many rungs of the degradation ladder the
// compilation descended: the number of distinct presets attempted beyond
// the first (0 = no fallback).
func fallbackDepth(attempts []compile.Attempt) int {
	seen := make(map[compile.Preset]bool, len(attempts))
	for _, a := range attempts {
		seen[a.Preset] = true
	}
	if len(seen) == 0 {
		return 0
	}
	return len(seen) - 1
}

func layoutSlice(l interface {
	NLogical() int
	Phys(int) int
}) []int {
	out := make([]int, l.NLogical())
	for q := range out {
		out[q] = l.Phys(q)
	}
	return out
}

func buildResponse(p *parsedRequest, out *outcome, cached bool) CompileResponse {
	resp := CompileResponse{
		Status:          "ok",
		CacheKey:        p.key,
		Cached:          cached,
		Device:          out.deviceName,
		PresetRequested: out.requested,
		PresetEffective: out.effective,
		Degraded:        out.degraded,
		DegradedReason:  out.degradedWhy,
		Attempts:        out.attempts,
		Swaps:           out.swaps,
		Depth:           out.depth,
		Gates:           out.gates,
		InitialLayout:   out.initial,
		FinalLayout:     out.final,
		Circuit:         out.circuitText,
	}
	if p.emitQASM {
		resp.QASM = out.qasm
	}
	return resp
}

// handleCalibration accepts a full device document (the same schema as an
// inline request device) and installs its calibration on the named
// registered device, bumping the calibration epoch. The document's
// coupling map must match the registered device.
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyLen)
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request", Error: "decoding calibration document: " + err.Error()})
		return
	}
	doc, err := device.FromJSON(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request", Error: err.Error()})
		return
	}
	cur, _, err := s.devices.get(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Status: "error", Kind: "bad_request", Error: err.Error()})
		return
	}
	if doc.Calib == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request", Error: "calibration document carries no calibration section"})
		return
	}
	if doc.NQubits() != cur.NQubits() {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request",
			Error: fmt.Sprintf("calibration document has %d qubits, device %s has %d", doc.NQubits(), name, cur.NQubits())})
		return
	}
	epoch, invalidated, err := s.ReloadCalibration(name, doc.Calib)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Status: "error", Kind: "bad_request", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status      string `json:"status"`
		Device      string `json:"device"`
		Epoch       int64  `json:"epoch"`
		Invalidated int    `json:"invalidated"`
	}{"ok", name, epoch, invalidated})
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	type devInfo struct {
		Name   string `json:"name"`
		Qubits int    `json:"qubits"`
		Epoch  int64  `json:"epoch"`
		Calib  bool   `json:"calibrated"`
	}
	var out []devInfo
	for _, name := range s.devices.names() {
		dev, epoch, err := s.devices.get(name)
		if err != nil {
			continue
		}
		out = append(out, devInfo{Name: name, Qubits: dev.NQubits(), Epoch: epoch, Calib: dev.Calib != nil})
	}
	writeJSON(w, http.StatusOK, struct {
		Devices []devInfo `json:"devices"`
	}{out})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	type breakerInfo struct {
		State     string `json:"state"`
		Successes int    `json:"successes"`
		Failures  int    `json:"failures"`
	}
	breakers := make(map[string]breakerInfo, len(compile.Presets))
	for _, p := range compile.Presets {
		state, succ, fail := s.breakers.byPreset[p].snapshot()
		breakers[p.String()] = breakerInfo{State: state, Successes: succ, Failures: fail}
	}
	ready, reason := s.Readiness()
	writeJSON(w, http.StatusOK, struct {
		Ready       bool                   `json:"ready"`
		Reason      string                 `json:"reason,omitempty"`
		CacheLen    int                    `json:"cache_entries"`
		SkelLen     int                    `json:"skeleton_entries"`
		QueueDepth  int                    `json:"queue_depth"`
		Breakers    map[string]breakerInfo `json:"breakers"`
		DeviceNames []string               `json:"devices"`
	}{ready, reason, s.cache.len(), s.skels.len(), s.adm.queueDepth(), breakers, s.devices.names()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
