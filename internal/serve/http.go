package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obsv"
)

// Hardened listener defaults shared by every binary that serves HTTP
// (qaoad, qaoa-exp -listen, qaoa-bench -listen). ReadHeaderTimeout closes
// slow-loris connections that trickle header bytes forever;
// IdleTimeout reclaims keep-alive connections of departed clients.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps h in an http.Server with the hardened timeouts.
// Deliberately no ReadTimeout/WriteTimeout: request bodies are bounded by
// MaxBytesReader and response time by the per-request deadlines, so whole-
// connection timeouts would only add a second, coarser limit that kills
// legitimate slow compiles.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ObsServer is a running observability endpoint (/metrics, /healthz,
// /readyz, /debug/pprof) with explicit readiness control and graceful
// shutdown — the hardened replacement for the bare listener the -listen
// flags used to return.
type ObsServer struct {
	srv     *http.Server
	ln      net.Listener
	handler *obsv.Handler

	mu     sync.Mutex
	ready  bool
	reason string
}

// ServeObs starts an observability server on addr (":0" picks a free
// port). The server starts not-ready ("warming up"); call SetReady(true,
// "") once the process is serving its purpose, SetReady(false, "draining")
// when shutdown begins, and Shutdown to stop. progress may be nil.
func ServeObs(addr string, col *obsv.Collector, progress obsv.ProgressFunc) (*ObsServer, error) {
	o := &ObsServer{reason: "warming up"}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	o.ln = ln
	o.handler = obsv.NewHandler(col, progress, o.Readiness)
	o.srv = NewHTTPServer(o.handler)
	go o.srv.Serve(ln) // returns on Shutdown; nothing useful to do with the error
	return o, nil
}

// Handle mounts an additional route next to the standard observability
// endpoints (e.g. a binary-specific debug page). Call before the first
// request touches the pattern.
func (o *ObsServer) Handle(pattern string, h http.Handler) {
	o.handler.Mux().Handle(pattern, h)
}

// SetSLO enables SLO burn-rate gauges on this server's /metrics page.
func (o *ObsServer) SetSLO(cfg obsv.SLOConfig) { o.handler.SetSLO(cfg) }

// Addr is the bound listen address (useful with ":0").
func (o *ObsServer) Addr() net.Addr { return o.ln.Addr() }

// SetReady flips the /readyz state. reason is reported while not ready.
func (o *ObsServer) SetReady(ready bool, reason string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ready, o.reason = ready, reason
}

// Readiness implements obsv.ReadyFunc over the SetReady state.
func (o *ObsServer) Readiness() (bool, string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ready, o.reason
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight responses finish within ctx. Idempotent.
func (o *ObsServer) Shutdown(ctx context.Context) error {
	o.SetReady(false, "draining")
	return o.srv.Shutdown(ctx)
}
