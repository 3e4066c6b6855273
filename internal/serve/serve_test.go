package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/qasm"
)

// newTestServer builds a ready server plus its HTTP test harness.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obsv.Collector) {
	t.Helper()
	col := cfg.Obs
	if col == nil {
		col = obsv.New()
		cfg.Obs = col
	}
	s := New(cfg)
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	})
	return s, ts, col
}

func ringRequest(devName string, n int, seed int64, policy string) CompileRequest {
	edges := make([][2]int, n)
	for v := 0; v < n; v++ {
		edges[v] = [2]int{v, (v + 1) % n}
	}
	return CompileRequest{
		DeviceName: devName,
		Circuit:    CircuitDoc{N: n, Edges: edges},
		Config:     ConfigDoc{Policy: policy, Seed: seed},
	}
}

func postCompile(t *testing.T, url string, req CompileRequest) (int, CompileResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ok CompileResponse
	var fail ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ok); err != nil {
			t.Fatalf("decoding success body: %v\n%s", err, data)
		}
	} else if err := json.Unmarshal(data, &fail); err != nil {
		t.Fatalf("decoding error body (status %d): %v\n%s", resp.StatusCode, err, data)
	}
	return resp.StatusCode, ok, fail
}

func TestCompileEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	st, got, _ := postCompile(t, ts.URL, ringRequest("tokyo", 6, 3, "IC"))
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if got.Cached {
		t.Error("first compile reported cached")
	}
	if got.PresetEffective != "IC" || got.PresetRequested != "IC" || got.Degraded {
		t.Errorf("presets: %+v", got)
	}
	if got.Circuit == "" || got.Depth <= 0 || got.Gates <= 0 {
		t.Errorf("missing circuit payload: depth=%d gates=%d", got.Depth, got.Gates)
	}
	if len(got.InitialLayout) != 6 || len(got.FinalLayout) != 6 {
		t.Errorf("layouts: %v / %v", got.InitialLayout, got.FinalLayout)
	}
	if got.QASM != "" {
		t.Error("qasm included without emit_qasm")
	}

	// Same document again: cache hit, byte-identical circuit.
	st2, got2, _ := postCompile(t, ts.URL, ringRequest("tokyo", 6, 3, "IC"))
	if st2 != http.StatusOK || !got2.Cached {
		t.Fatalf("second request: status %d cached %v", st2, got2.Cached)
	}
	if got2.Circuit != got.Circuit || got2.CacheKey != got.CacheKey {
		t.Error("cached circuit differs from compiled one")
	}

	// emit_qasm produces the export but must not fork the cache key.
	req := ringRequest("tokyo", 6, 3, "IC")
	req.Config.EmitQASM = true
	st3, got3, _ := postCompile(t, ts.URL, req)
	if st3 != http.StatusOK || !got3.Cached || !strings.HasPrefix(got3.QASM, "OPENQASM 2.0;") {
		t.Errorf("emit_qasm request: status %d cached %v qasm %.30q", st3, got3.Cached, got3.QASM)
	}
}

func TestSingleflightSharesOneCompile(t *testing.T) {
	// The latency hook keeps the flight open long enough for every waiter
	// to join it.
	hook := compile.Hook(func(string) error { time.Sleep(5 * time.Millisecond); return nil })
	_, ts, col := newTestServer(t, Config{Hook: hook})

	const waiters = 8
	var wg sync.WaitGroup
	circuits := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, got, _ := postCompile(t, ts.URL, ringRequest("tokyo", 8, 5, "IC"))
			if st != http.StatusOK {
				t.Errorf("waiter %d: status %d", i, st)
				return
			}
			circuits[i] = got.Circuit
		}(i)
	}
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if circuits[i] != circuits[0] {
			t.Fatalf("waiter %d received a different circuit", i)
		}
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 1 {
		t.Errorf("%d compiles for %d identical concurrent requests, want 1", n, waiters)
	}
	if n := col.Counter(obsv.CntServeSingleflightShared); n != waiters-1 {
		t.Errorf("singleflight shared %d, want %d", n, waiters-1)
	}
}

func TestCacheKeyCanonicalizesEdgeOrder(t *testing.T) {
	_, ts, col := newTestServer(t, Config{})
	a := CompileRequest{
		DeviceName: "tokyo",
		Circuit:    CircuitDoc{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}},
		Config:     ConfigDoc{Policy: "IC", Seed: 2},
	}
	b := CompileRequest{
		DeviceName: "tokyo",
		// Same graph: reversed pairs, shuffled listing.
		Circuit: CircuitDoc{N: 4, Edges: [][2]int{{3, 0}, {3, 2}, {2, 1}, {1, 0}}},
		Config:  ConfigDoc{Policy: "IC", Seed: 2},
	}
	_, ra, _ := postCompile(t, ts.URL, a)
	st, rb, _ := postCompile(t, ts.URL, b)
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if ra.CacheKey != rb.CacheKey {
		t.Error("equal graphs in different listing order got different cache keys")
	}
	if !rb.Cached || rb.Circuit != ra.Circuit {
		t.Error("canonicalized request missed the cache or differed")
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 1 {
		t.Errorf("%d compiles, want 1", n)
	}

	// A different seed is a different artifact.
	c := a
	c.Config.Seed = 3
	_, rc, _ := postCompile(t, ts.URL, c)
	if rc.CacheKey == ra.CacheKey || rc.Cached {
		t.Error("different seed shared the cache entry")
	}
}

func TestCalibrationReloadInvalidatesExactlyAffectedEntries(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})

	stM, gotM, _ := postCompile(t, ts.URL, ringRequest("melbourne", 6, 3, "IC"))
	stT, gotT, _ := postCompile(t, ts.URL, ringRequest("tokyo", 6, 3, "IC"))
	if stM != http.StatusOK || stT != http.StatusOK {
		t.Fatalf("seed compiles: %d %d", stM, stT)
	}
	if s.CacheLen() != 2 {
		t.Fatalf("cache length %d, want 2", s.CacheLen())
	}

	// Reload melbourne's calibration via the API (the document is a full
	// device doc; its calibration section is installed).
	doc, err := device.Melbourne15().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/devices/melbourne/calibration", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rl struct {
		Epoch       int64 `json:"epoch"`
		Invalidated int   `json:"invalidated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	// Both of melbourne's entries go: the compiled outcome and the routed
	// skeleton that produced it.
	if resp.StatusCode != http.StatusOK || rl.Epoch != 1 || rl.Invalidated != 2 {
		t.Fatalf("reload: status %d epoch %d invalidated %d", resp.StatusCode, rl.Epoch, rl.Invalidated)
	}
	if s.SkeletonCacheLen() != 1 {
		t.Fatalf("skeleton cache length %d after reload, want 1 (tokyo's survives)", s.SkeletonCacheLen())
	}

	// Tokyo's entry survived; melbourne recompiles under the new epoch and
	// must not see the old entry.
	_, gotT2, _ := postCompile(t, ts.URL, ringRequest("tokyo", 6, 3, "IC"))
	if !gotT2.Cached || gotT2.CacheKey != gotT.CacheKey {
		t.Error("unrelated device's cache entry was invalidated")
	}
	_, gotM2, _ := postCompile(t, ts.URL, ringRequest("melbourne", 6, 3, "IC"))
	if gotM2.Cached {
		t.Error("melbourne served a stale pre-reload entry")
	}
	if gotM2.CacheKey == gotM.CacheKey {
		t.Error("cache key did not change across calibration epochs")
	}
}

func TestInlineDeviceRevisionsNeverShareEntries(t *testing.T) {
	_, ts, col := newTestServer(t, Config{})
	mkReq := func(dev *device.Device) CompileRequest {
		doc, err := dev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		r := ringRequest("", 6, 3, "IC")
		r.Device = doc
		return r
	}
	devA := device.Melbourne15()
	devB := device.Melbourne15()
	// devB is the same topology with one drifted error rate — a different
	// device revision.
	for k, v := range devB.Calib.CNOTError {
		devB.Calib.CNOTError[k] = v * 1.5
		break
	}
	_, ra, _ := postCompile(t, ts.URL, mkReq(devA))
	st, rb, _ := postCompile(t, ts.URL, mkReq(devB))
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if ra.CacheKey == rb.CacheKey || rb.Cached {
		t.Error("distinct device revisions shared a cache entry")
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 2 {
		t.Errorf("%d compiles, want 2", n)
	}
	// Identical revision does hit.
	_, ra2, _ := postCompile(t, ts.URL, mkReq(device.Melbourne15()))
	if !ra2.Cached || ra2.CacheKey != ra.CacheKey {
		t.Error("identical inline device revision missed the cache")
	}
}

func TestAdmissionShedsBeyondQueue(t *testing.T) {
	hook := compile.Hook(func(string) error { time.Sleep(10 * time.Millisecond); return nil })
	_, ts, col := newTestServer(t, Config{Workers: 2, Queue: 4, Hook: hook})

	const n = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	retryAfterOK := true
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(ringRequest("tokyo", 4, int64(i+1), "IC"))
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				retryAfterOK = false
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no sheds under %d concurrent slow compiles on workers=2 queue=4: %v", n, codes)
	}
	if codes[http.StatusOK]+codes[http.StatusTooManyRequests] != n {
		t.Errorf("unexpected statuses: %v", codes)
	}
	if !retryAfterOK {
		t.Error("shed response missing Retry-After")
	}
	// Shed accounting is exact: the counter equals the 429s clients saw.
	if got := col.Counter(obsv.CntServeShed); got != int64(codes[http.StatusTooManyRequests]) {
		t.Errorf("serve/shed %d != client-observed 429s %d", got, codes[http.StatusTooManyRequests])
	}
}

func TestDeadlineBoundsWaitNotFlight(t *testing.T) {
	hook := compile.Hook(func(string) error { time.Sleep(30 * time.Millisecond); return nil })
	_, ts, col := newTestServer(t, Config{Hook: hook})

	req := ringRequest("tokyo", 4, 9, "IC")
	req.Config.DeadlineMS = 1
	st, _, fail := postCompile(t, ts.URL, req)
	if st != http.StatusGatewayTimeout || fail.Kind != "deadline" {
		t.Fatalf("status %d kind %q, want 504 deadline", st, fail.Kind)
	}
	if n := col.Counter(obsv.CntServeDeadlineExceeded); n != 1 {
		t.Errorf("deadline counter %d", n)
	}

	// The flight kept running server-side; once it lands, a patient client
	// gets the cached artifact without a recompile.
	deadline := time.Now().Add(5 * time.Second)
	for {
		req.Config.DeadlineMS = 2000
		st2, got2, _ := postCompile(t, ts.URL, req)
		if st2 == http.StatusOK {
			if !got2.Cached && col.Counter(obsv.CntServeCompiles) > 1 {
				t.Errorf("abandoned flight's result was recompiled")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never completed after client deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCompileFailureReturnsTypedError(t *testing.T) {
	hook := compile.Hook(func(string) error { return fmt.Errorf("injected: pass exploded") })
	_, ts, col := newTestServer(t, Config{Hook: hook, Retries: 1, Backoff: time.Millisecond})
	st, _, fail := postCompile(t, ts.URL, ringRequest("tokyo", 4, 9, "IC"))
	if st != http.StatusInternalServerError || fail.Kind != "compile_failed" {
		t.Fatalf("status %d kind %q, want 500 compile_failed", st, fail.Kind)
	}
	if !strings.Contains(fail.Error, "all fallbacks") {
		t.Errorf("error lacks ladder detail: %q", fail.Error)
	}
	if n := col.Counter(obsv.CntServeErrors); n != 1 {
		t.Errorf("error counter %d", n)
	}
}

func TestReadinessLifecycle(t *testing.T) {
	col := obsv.New()
	s := New(Config{Obs: col})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	readyStatus := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Warming up: not ready, compiles refused with 503 draining kind.
	if st := readyStatus(); st != http.StatusServiceUnavailable {
		t.Errorf("/readyz during warm-up: %d", st)
	}
	st, _, fail := postCompile(t, ts.URL, ringRequest("tokyo", 4, 1, "IC"))
	if st != http.StatusServiceUnavailable || fail.Kind != "draining" {
		t.Errorf("compile during warm-up: %d %q", st, fail.Kind)
	}

	s.MarkReady()
	if st := readyStatus(); st != http.StatusOK {
		t.Errorf("/readyz when ready: %d", st)
	}
	if st, _, _ := postCompile(t, ts.URL, ringRequest("tokyo", 4, 1, "IC")); st != http.StatusOK {
		t.Errorf("compile when ready: %d", st)
	}

	// /healthz stays 200 through every phase — liveness, not readiness.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := readyStatus(); st != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d", st)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: %d", resp.StatusCode)
	}
	if st, _, f := postCompile(t, ts.URL, ringRequest("tokyo", 4, 2, "IC")); st != http.StatusServiceUnavailable || f.Kind != "draining" {
		t.Errorf("compile while draining: %d %q", st, f.Kind)
	}
}

func TestParseRequestRejectsBadDocuments(t *testing.T) {
	_, ts, col := newTestServer(t, Config{})
	ring := func(mut func(*CompileRequest)) CompileRequest {
		r := ringRequest("tokyo", 4, 1, "IC")
		mut(&r)
		return r
	}
	cases := []struct {
		name string
		req  CompileRequest
	}{
		{"no device", ring(func(r *CompileRequest) { r.DeviceName = "" })},
		{"unknown device", ring(func(r *CompileRequest) { r.DeviceName = "nonesuch" })},
		{"unknown policy", ring(func(r *CompileRequest) { r.Config.Policy = "SUPERB" })},
		{"zero qubits", ring(func(r *CompileRequest) { r.Circuit.N = 0 })},
		{"no edges", ring(func(r *CompileRequest) { r.Circuit.Edges = nil })},
		{"self loop", ring(func(r *CompileRequest) { r.Circuit.Edges[0] = [2]int{1, 1} })},
		{"out of range", ring(func(r *CompileRequest) { r.Circuit.Edges[0] = [2]int{0, 9} })},
		{"duplicate edge", ring(func(r *CompileRequest) { r.Circuit.Edges[1] = [2]int{1, 0} })},
		{"weights mismatch", ring(func(r *CompileRequest) { r.Circuit.Weights = []float64{1} })},
		{"negative deadline", ring(func(r *CompileRequest) { r.Config.DeadlineMS = -1 })},
		{"gamma length", ring(func(r *CompileRequest) { r.Config.Gamma = []float64{0.1, 0.2} })},
		{"too many levels", ring(func(r *CompileRequest) { r.Config.P = maxLevels + 1 })},
		{"oversized n", ring(func(r *CompileRequest) { r.Circuit.N = maxQubits + 1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, _, fail := postCompile(t, ts.URL, tc.req)
			if st != http.StatusBadRequest || fail.Kind != "bad_request" {
				t.Errorf("status %d kind %q, want 400 bad_request", st, fail.Kind)
			}
		})
	}
	if n := col.Counter(obsv.CntServeBadRequests); n != int64(len(cases)) {
		t.Errorf("bad-request counter %d, want %d", n, len(cases))
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 0 {
		t.Errorf("bad requests triggered %d compiles", n)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := newBreaker(BreakerConfig{Window: 10 * time.Second, MinRequests: 4, FailureRate: 0.5,
		Cooldown: 5 * time.Second, HalfOpenProbes: 2}, clock)

	// Below MinRequests nothing trips, whatever the rate.
	for i := 0; i < 3; i++ {
		if b.record(false) {
			t.Fatal("tripped below MinRequests")
		}
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker refused")
	}
	// Fourth failure: 4/4 failed ≥ 50% → open.
	if !b.record(false) {
		t.Fatal("did not trip at the threshold")
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker admitted during cooldown")
	}

	// Cooldown elapses → half-open with a bounded probe budget.
	now = now.Add(6 * time.Second)
	ok1, probe1 := b.allow()
	ok2, probe2 := b.allow()
	ok3, _ := b.allow()
	if !ok1 || !probe1 || !ok2 || !probe2 {
		t.Fatalf("half-open probes: %v/%v %v/%v", ok1, probe1, ok2, probe2)
	}
	if ok3 {
		t.Fatal("half-open admitted beyond the probe budget")
	}

	// A probe failure re-opens for another cooldown.
	if !b.record(false) {
		t.Fatal("half-open failure did not re-open")
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("re-opened breaker admitted")
	}

	// Cooldown again, this time the probe succeeds → closed, fresh window.
	now = now.Add(6 * time.Second)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("expected a half-open probe")
	}
	if b.record(true) {
		t.Fatal("success reported as a trip")
	}
	if state, succ, fail := b.snapshot(); state != "closed" || succ != 0 || fail != 0 {
		t.Fatalf("after recovery: %s %d/%d", state, succ, fail)
	}

	// Window rotation: stale outcomes do not linger. 3 failures, then the
	// window expires; the next failure starts a fresh count and must not
	// trip on stale history.
	for i := 0; i < 3; i++ {
		b.record(false)
	}
	now = now.Add(11 * time.Second)
	if b.record(false) {
		t.Fatal("tripped on outcomes from an expired window")
	}
}

func TestBreakerRoutesDownLadder(t *testing.T) {
	now := time.Unix(2000, 0)
	col := obsv.New()
	bs := newBreakerSet(BreakerConfig{MinRequests: 2, FailureRate: 0.5, Cooldown: time.Hour},
		func() time.Time { return now }, col)

	// Healthy: VIC requests start at VIC.
	if start, rerouted, ok := bs.route(compile.PresetVIC); !ok || rerouted || start != compile.PresetVIC {
		t.Fatalf("healthy route: %v %v %v", start, rerouted, ok)
	}

	// Trip VIC via observed failed attempts.
	bs.observe(nil, []compile.Attempt{{Preset: compile.PresetVIC, Err: "x"}, {Preset: compile.PresetVIC, Err: "x"}})
	start, rerouted, ok := bs.route(compile.PresetVIC)
	if !ok || !rerouted || start != compile.PresetIC {
		t.Fatalf("route with VIC open: %v %v %v", start, rerouted, ok)
	}
	if n := col.Counter(obsv.CntServeBreakerRerouted); n != 1 {
		t.Errorf("rerouted counter %d", n)
	}

	// Trip the whole ladder → no route.
	for _, p := range []compile.Preset{compile.PresetIC, compile.PresetIP, compile.PresetNaive} {
		bs.observe(nil, []compile.Attempt{{Preset: p, Err: "x"}, {Preset: p, Err: "x"}})
	}
	if _, _, ok := bs.route(compile.PresetVIC); ok {
		t.Fatal("routed despite every rung open")
	}
	if n := col.Counter(obsv.CntServeBreakerOpens); n != 4 {
		t.Errorf("breaker opens %d, want 4", n)
	}
}

func TestAllBreakersOpenReturns503(t *testing.T) {
	// Persistent pass failures fail whole ladders; with a tiny breaker
	// window every rung opens quickly and requests are rejected up front.
	hook := compile.Hook(func(string) error { return fmt.Errorf("injected: hard down") })
	_, ts, col := newTestServer(t, Config{
		Hook:    hook,
		Retries: 0,
		Breaker: BreakerConfig{MinRequests: 1, FailureRate: 0.01, Cooldown: time.Hour},
	})

	// First request fails the ladder and trips every rung's breaker.
	st, _, fail := postCompile(t, ts.URL, ringRequest("tokyo", 4, 1, "IC"))
	if st != http.StatusInternalServerError || fail.Kind != "compile_failed" {
		t.Fatalf("first request: %d %q", st, fail.Kind)
	}
	// Now nothing is admitted: breaker_open 503 without compiling.
	before := col.Counter(obsv.CntServeCompiles)
	st2, _, fail2 := postCompile(t, ts.URL, ringRequest("tokyo", 4, 2, "IC"))
	if st2 != http.StatusServiceUnavailable || fail2.Kind != "breaker_open" {
		t.Fatalf("second request: %d %q", st2, fail2.Kind)
	}
	if col.Counter(obsv.CntServeCompiles) != before {
		t.Error("breaker-rejected request still compiled")
	}
	if n := col.Counter(obsv.CntServeBreakerRejected); n != 1 {
		t.Errorf("breaker_rejected counter %d", n)
	}
}

func TestStatusAndDevicesEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Ready    bool                       `json:"ready"`
		Breakers map[string]json.RawMessage `json:"breakers"`
		Devices  []string                   `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if !status.Ready || len(status.Breakers) != len(compile.Presets) {
		t.Errorf("status: %+v", status)
	}
	want := []string{"falcon27", "grid6x6", "melbourne", "tokyo"}
	if fmt.Sprint(status.Devices) != fmt.Sprint(want) {
		t.Errorf("devices %v, want %v", status.Devices, want)
	}

	resp2, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var devs struct {
		Devices []struct {
			Name  string `json:"name"`
			Epoch int64  `json:"epoch"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&devs); err != nil {
		t.Fatal(err)
	}
	if len(devs.Devices) != 4 {
		t.Errorf("devices: %+v", devs)
	}
}

func TestMetricNamesPassRegistry(t *testing.T) {
	// Drive every serve counter path at least once, then verify the
	// collector holds no unregistered names — the same gate CI applies.
	hook := compile.Hook(func(string) error { time.Sleep(time.Millisecond); return nil })
	_, ts, col := newTestServer(t, Config{Hook: hook, Workers: 1, Queue: 0})
	postCompile(t, ts.URL, ringRequest("tokyo", 4, 1, "IC"))
	postCompile(t, ts.URL, ringRequest("tokyo", 4, 1, "IC"))
	postCompile(t, ts.URL, CompileRequest{})
	snap := col.Snapshot()
	if bad := snap.Unregistered(); len(bad) != 0 {
		t.Errorf("unregistered metric names recorded: %v", bad)
	}
}

// angleRequest is ringRequest with explicit per-level angles.
func angleRequest(devName string, n int, seed int64, policy string, gamma, beta []float64) CompileRequest {
	r := ringRequest(devName, n, seed, policy)
	r.Config.P = len(gamma)
	r.Config.Gamma = gamma
	r.Config.Beta = beta
	return r
}

// An angle-tuning client — same structure, different angles per request —
// pays exactly one routing pass: the second request misses the full-key
// tier but hits the skeleton tier and binds.
func TestDistinctAnglesHitSkeletonTier(t *testing.T) {
	s, ts, col := newTestServer(t, Config{})

	st1, got1, _ := postCompile(t, ts.URL, angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2}))
	if st1 != http.StatusOK || got1.Cached {
		t.Fatalf("first request: status %d cached %v", st1, got1.Cached)
	}
	st2, got2, _ := postCompile(t, ts.URL, angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{0.1}))
	if st2 != http.StatusOK {
		t.Fatalf("second request: status %d", st2)
	}
	if !got2.Cached {
		t.Error("distinct-angle request was not served from the skeleton tier")
	}
	if got2.CacheKey == got1.CacheKey {
		t.Error("distinct angles shared a full cache key")
	}
	if got2.Circuit == got1.Circuit {
		t.Error("distinct angles produced identical circuits")
	}
	// Identical routing: the angles only change rotation phases.
	if got2.Swaps != got1.Swaps || got2.Depth != got1.Depth || got2.Gates != got1.Gates {
		t.Errorf("routed metrics differ across angles: %+v vs %+v", got2, got1)
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 1 {
		t.Errorf("%d compile flights, want 1", n)
	}
	if n := col.Counter(obsv.CntServeSkeletonHits); n != 1 {
		t.Errorf("skeleton hits = %d, want 1", n)
	}
	if s.CacheLen() != 2 || s.SkeletonCacheLen() != 1 {
		t.Errorf("cache lens: full %d skel %d, want 2/1", s.CacheLen(), s.SkeletonCacheLen())
	}

	// The bound outcome filled the full-key tier: the exact repeat is a
	// first-tier hit, not another bind.
	st3, got3, _ := postCompile(t, ts.URL, angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{0.1}))
	if st3 != http.StatusOK || !got3.Cached || got3.Circuit != got2.Circuit {
		t.Fatalf("repeat request: status %d cached %v", st3, got3.Cached)
	}
	if n := col.Counter(obsv.CntServeSkeletonHits); n != 1 {
		t.Errorf("skeleton hits after full-tier hit = %d, want still 1", n)
	}
}

// A skeleton-tier bind must be byte-identical to the circuit a cold server
// compiles directly for the same document — the service-level form of the
// Bind/Compile oracle contract.
func TestSkeletonBindMatchesDirectCompile(t *testing.T) {
	req := angleRequest("melbourne", 8, 7, "IC", []float64{0.8, 0.4}, []float64{0.4, 0.2})

	_, ts1, _ := newTestServer(t, Config{})
	st, direct, _ := postCompile(t, ts1.URL, req)
	if st != http.StatusOK {
		t.Fatalf("direct compile: status %d", st)
	}

	_, ts2, col2 := newTestServer(t, Config{})
	// Warm the skeleton tier with different angles, then bind the target's.
	if st, _, _ := postCompile(t, ts2.URL, angleRequest("melbourne", 8, 7, "IC", []float64{0.1, 0.2}, []float64{0.3, 0.4})); st != http.StatusOK {
		t.Fatalf("warm compile: status %d", st)
	}
	st, bound, _ := postCompile(t, ts2.URL, req)
	if st != http.StatusOK || !bound.Cached {
		t.Fatalf("bound compile: status %d cached %v", st, bound.Cached)
	}
	if n := col2.Counter(obsv.CntServeSkeletonHits); n != 1 {
		t.Fatalf("skeleton hits = %d, want 1", n)
	}
	if bound.Circuit != direct.Circuit || bound.CacheKey != direct.CacheKey {
		t.Error("skeleton-bound circuit differs from direct compile")
	}
	if bound.Swaps != direct.Swaps || bound.Depth != direct.Depth || bound.Gates != direct.Gates {
		t.Errorf("bound metrics %+v differ from direct %+v", bound, direct)
	}
}

// Optimize requests are angle-dependent post-bind, so they bypass the
// skeleton tier entirely.
func TestOptimizeRequestsBypassSkeletonTier(t *testing.T) {
	s, ts, col := newTestServer(t, Config{})
	req := angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2})
	req.Config.Optimize = true
	if st, _, _ := postCompile(t, ts.URL, req); st != http.StatusOK {
		t.Fatalf("optimize compile failed")
	}
	req2 := angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{0.1})
	req2.Config.Optimize = true
	if st, got, _ := postCompile(t, ts.URL, req2); st != http.StatusOK || got.Cached {
		t.Fatalf("second optimize request: status %d cached %v", st, got.Cached)
	}
	if s.SkeletonCacheLen() != 0 {
		t.Errorf("skeleton cache has %d entries for optimize traffic, want 0", s.SkeletonCacheLen())
	}
	if n := col.Counter(obsv.CntServeSkeletonHits) + col.Counter(obsv.CntServeSkeletonMisses); n != 0 {
		t.Errorf("skeleton tier touched %d times by optimize traffic, want 0", n)
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 2 {
		t.Errorf("%d compile flights, want 2", n)
	}
}

// Concurrent distinct-angle requests over one structure share a single
// skeleton flight: one routing pass, every waiter binds its own angles.
func TestDistinctAngleSingleflight(t *testing.T) {
	hook := compile.Hook(func(string) error { time.Sleep(5 * time.Millisecond); return nil })
	_, ts, col := newTestServer(t, Config{Workers: 1, Hook: hook})
	const n = 6
	var wg sync.WaitGroup
	circuits := make([]string, n)
	status := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := angleRequest("tokyo", 6, 3, "IC", []float64{0.1 * float64(i+1)}, []float64{0.05 * float64(i+1)})
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			status[i] = resp.StatusCode
			var ok CompileResponse
			if resp.StatusCode == http.StatusOK {
				if json.NewDecoder(resp.Body).Decode(&ok) == nil {
					circuits[i] = ok.Circuit
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if status[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status[i])
		}
		if circuits[i] == "" {
			t.Fatalf("request %d: empty circuit", i)
		}
		for j := 0; j < i; j++ {
			if circuits[i] == circuits[j] {
				t.Errorf("requests %d and %d with distinct angles got identical circuits", i, j)
			}
		}
	}
	if got := col.Counter(obsv.CntServeCompiles); got != 1 {
		t.Errorf("%d compile flights for %d distinct-angle requests, want 1", got, n)
	}
}

// The skeleton tier binds every request's angles into one pooled
// BindBuffer, so an outcome must not alias the buffer: the next bind
// overwrites it. bindOutcome's contract (and its //lint:allow poolsafe
// escape) is that buildOutcome deep-copies everything it keeps — this
// test rebinds with different angles and asserts the first outcomes, one
// rendered with its QASM and one without, are bitwise untouched and still
// render what a fresh, unpooled bind of their angles renders.
func TestBindOutcomeCopiesPooledBuffer(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	if st, _, _ := postCompile(t, ts.URL, angleRequest("tokyo", 6, 3, "IC", []float64{0.1}, []float64{0.2})); st != http.StatusOK {
		t.Fatal("warm compile failed")
	}

	parse := func(req CompileRequest) *parsedRequest {
		t.Helper()
		p, err := s.parseRequest(&req)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return p
	}
	req1 := angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2})
	req1.Config.EmitQASM = true
	p1 := parse(req1)
	p1lazy := parse(angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2}))
	p2 := parse(angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{0.7}))
	se, ok := s.skels.get(p1.skelKey)
	if !ok {
		t.Fatalf("skeleton entry not cached under %q", p1.skelKey)
	}

	out1, err := s.bindOutcome(p1, se, new(reqState))
	if err != nil {
		t.Fatalf("first bind: %v", err)
	}
	lazy1, err := s.bindOutcome(p1lazy, se, new(reqState))
	if err != nil {
		t.Fatalf("first bind without QASM: %v", err)
	}
	if out1.qasmJSON == "" || lazy1.qasmJSON != "" || lazy1.skel != se {
		t.Fatalf("QASM rendering: emit_qasm outcome has %d bytes, lazy outcome %d bytes and skeleton %v",
			len(out1.qasmJSON), len(lazy1.qasmJSON), lazy1.skel != nil)
	}
	type snapshot struct {
		circuit, qasm  string
		initial, final []int
		gamma, beta    []float64
	}
	snap := func(o *outcome) snapshot {
		return snapshot{o.circuitJSON, o.qasmJSON, append([]int(nil), o.initial...), append([]int(nil), o.final...),
			append([]float64(nil), o.gamma...), append([]float64(nil), o.beta...)}
	}
	before1, beforeLazy := snap(out1), snap(lazy1)

	out2, err := s.bindOutcome(p2, se, new(reqState))
	if err != nil {
		t.Fatalf("second bind: %v", err)
	}
	if out2.circuitJSON == before1.circuit {
		t.Fatal("distinct angles bound to identical circuits; the test is not exercising a rebind")
	}
	if !reflect.DeepEqual(snap(out1), before1) || !reflect.DeepEqual(snap(lazy1), beforeLazy) {
		t.Error("a first outcome changed after the pooled buffer was rebound")
	}

	fresh, err := se.skel.Bind(qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{0.2}})
	if err != nil {
		t.Fatal(err)
	}
	wantCircuit, _ := json.Marshal(fresh.Circuit.String())
	wantQASM, _ := json.Marshal(qasm.Export(fresh.Native))
	if out1.circuitJSON != string(wantCircuit) || lazy1.circuitJSON != string(wantCircuit) || out1.qasmJSON != string(wantQASM) {
		t.Error("rendered outcome differs from a fresh bind of the same angles")
	}
}
