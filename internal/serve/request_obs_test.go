package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// lockedBuffer is a concurrency-safe log sink: the handler goroutine may
// emit the wide-event line after the response is already on the wire, so
// the test polls Lines under the lock.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// waitForLines polls until the log sink holds at least n lines (the
// canonical line is emitted asynchronously with the response tail).
func waitForLines(t *testing.T, b *lockedBuffer, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if lines := b.Lines(); len(lines) >= n {
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("log sink never reached %d lines: %q", n, b.Lines())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRequestIDJoinsAllFourSurfaces is the tentpole invariant: one request
// ID joins the response header, the canonical log line, the inspector
// record and the compile trace meta event.
func TestRequestIDJoinsAllFourSurfaces(t *testing.T) {
	logSink := &lockedBuffer{}
	s, ts, _ := newTestServer(t, Config{
		Workers:       2,
		Log:           obsv.NewLogger(logSink),
		TraceRequests: true,
	})

	body, err := json.Marshal(ringRequest("tokyo", 6, 3, "IC"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}

	// Surface 1: the response header.
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("response carries no X-Request-ID")
	}

	// Surface 2: the canonical log line.
	line := waitForLines(t, logSink, 1)[0]
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
	}
	if ev["msg"] != obsv.WideEventMsgRequest {
		t.Errorf("log msg = %v, want %q", ev["msg"], obsv.WideEventMsgRequest)
	}
	if ev[obsv.FieldReqID] != id {
		t.Errorf("log req_id = %v, header id = %s", ev[obsv.FieldReqID], id)
	}
	if ev[obsv.FieldOutcome] != "ok" {
		t.Errorf("log outcome = %v, want ok", ev[obsv.FieldOutcome])
	}

	// Surface 3: the inspector record.
	_, recent := s.InspectorSnapshot()
	if len(recent) != 1 {
		t.Fatalf("inspector holds %d recent records, want 1", len(recent))
	}
	rec := recent[0]
	if rec.ID != id {
		t.Errorf("inspector id = %s, header id = %s", rec.ID, id)
	}
	if rec.Outcome != "ok" || rec.HTTPStatus != http.StatusOK {
		t.Errorf("inspector record outcome=%s status=%d, want ok/200", rec.Outcome, rec.HTTPStatus)
	}

	// Surface 4: the trace meta event of the compile flight.
	if len(rec.Trace) == 0 {
		t.Fatal("TraceRequests produced no trace on the inspector record")
	}
	var meta *trace.MetaInfo
	for _, e := range rec.Trace {
		if e.Kind == trace.KindMeta {
			meta = e.Meta
			break
		}
	}
	if meta == nil {
		t.Fatal("trace has no meta event")
	}
	if meta.RequestID != id {
		t.Errorf("trace meta request_id = %s, header id = %s", meta.RequestID, id)
	}
}

func TestClientRequestIDHonoredInvalidReplaced(t *testing.T) {
	logSink := &lockedBuffer{}
	_, ts, _ := newTestServer(t, Config{Workers: 2, Log: obsv.NewLogger(logSink)})
	post := func(id string) *http.Response {
		t.Helper()
		body, err := json.Marshal(ringRequest("tokyo", 4, 9, "NAIVE"))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if got := post("client-abc.123_x").Header.Get("X-Request-ID"); got != "client-abc.123_x" {
		t.Errorf("well-formed client ID not honored: got %s", got)
	}
	for _, bad := range []string{"has space", "ünïcode", strings.Repeat("x", 65)} {
		got := post(bad).Header.Get("X-Request-ID")
		if got == bad || !strings.HasPrefix(got, "req-") {
			t.Errorf("malformed client ID %q not replaced: got %s", bad, got)
		}
	}
}

// TestServePresetNamesMatchCompilePresets pins the per-preset metric
// registry to the compiler's preset set: adding a preset without extending
// the registry builders fails here, not as an "other"-bucketed mystery
// series in production.
func TestServePresetNamesMatchCompilePresets(t *testing.T) {
	if len(obsv.ServePresetNames) != len(compile.Presets) {
		t.Fatalf("registry tracks %d presets, compiler has %d",
			len(obsv.ServePresetNames), len(compile.Presets))
	}
	for i, p := range compile.Presets {
		if obsv.ServePresetNames[i] != p.String() {
			t.Errorf("registry preset %d = %q, compiler = %q", i, obsv.ServePresetNames[i], p)
		}
	}
	// The name builders must resolve every real preset to a dedicated
	// series, never the "other" bucket.
	for _, p := range compile.Presets {
		if name := obsv.HistServePresetMS(p.String()); strings.Contains(name, "other") {
			t.Errorf("preset %s falls into the other bucket: %s", p, name)
		}
	}
}

// TestMetricsExposeHistogramsAndSLO drives requests through the full stack
// and asserts the shared-listener /metrics page carries the histogram
// exposition and the SLO burn-rate gauges.
func TestMetricsExposeHistogramsAndSLO(t *testing.T) {
	_, ts, col := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		status, _, _ := postCompile(t, ts.URL, ringRequest("tokyo", 5, 7, "IP"))
		if status != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, status)
		}
	}
	if got := col.Snapshot().Hist(obsv.HistServeRequestMS); got == nil || got.Count < 3 {
		t.Fatalf("request histogram missing or undercounted: %+v", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(data)
	for _, want := range []string{
		`qaoa_serve_request_ms_bucket{le="`,
		`qaoa_serve_request_ms_bucket{le="+Inf"}`,
		"qaoa_serve_request_ms_sum",
		"qaoa_serve_request_ms_count",
		`qaoa_slo_availability_burn_rate{preset="all"}`,
		`qaoa_slo_latency_burn_rate{preset="all"}`,
		`qaoa_slo_availability_burn_rate{preset="IP"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestInspectorRingAndEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2, RecentRequests: 2})
	// Three requests through a ring of two: the oldest must be evicted.
	var ids []string
	for i := 0; i < 3; i++ {
		body, err := json.Marshal(ringRequest("tokyo", 4, int64(20+i), "NAIVE"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Request-ID"))
	}

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Total  uint64          `json:"total_requests"`
		Active []RequestRecord `json:"active"`
		Recent []RequestRecord `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if page.Total != 3 || len(page.Active) != 0 || len(page.Recent) != 2 {
		t.Fatalf("page total=%d active=%d recent=%d, want 3/0/2",
			page.Total, len(page.Active), len(page.Recent))
	}
	// Newest first, oldest evicted.
	if page.Recent[0].ID != ids[2] || page.Recent[1].ID != ids[1] {
		t.Errorf("ring order %s,%s; want %s,%s", page.Recent[0].ID, page.Recent[1].ID, ids[2], ids[1])
	}

	text, err := http.Get(ts.URL + "/debug/requests?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(text.Body)
	text.Body.Close()
	for _, want := range []string{"ACTIVE", "RECENT", ids[2]} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text page missing %q:\n%s", want, body)
		}
	}
}

func TestInspectorUpdateAfterEndIsNoop(t *testing.T) {
	ins := newInspector(4)
	ins.begin(RequestRecord{ID: "a", started: time.Now()})
	ins.end("a", RequestRecord{ID: "a", Outcome: "ok"})
	ins.update("a", func(r *RequestRecord) { r.Outcome = "mutated" })
	_, recent := ins.snapshot(time.Now())
	if len(recent) != 1 || recent[0].Outcome != "ok" {
		t.Errorf("update after end mutated the finished record: %+v", recent)
	}
	if ins.activeCount() != 0 {
		t.Errorf("activeCount = %d after end", ins.activeCount())
	}
}

// Only the request that waited on a compile flight reports its map/order/
// route times; a full-key hit and a skeleton hit did no pass work and
// report zero on both the wide event and the inspector record.
func TestPassTimesOnlyOnCompileFlight(t *testing.T) {
	logSink := &lockedBuffer{}
	s, ts, _ := newTestServer(t, Config{Workers: 2, Log: obsv.NewLogger(logSink)})

	cold := angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2})
	skelHit := angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{0.1})
	for _, req := range []CompileRequest{cold, skelHit, cold} {
		if st, _, fail := postCompile(t, ts.URL, req); st != http.StatusOK {
			t.Fatalf("status %d: %+v", st, fail)
		}
	}

	class := func(cacheHit, skeletonHit bool) string {
		switch {
		case skeletonHit:
			return "skeleton hit"
		case cacheHit:
			return "full-key hit"
		}
		return "cold"
	}
	check := func(surface, kind string, mapMS, orderMS, routeMS float64) {
		t.Helper()
		if kind == "cold" {
			if mapMS+orderMS+routeMS <= 0 {
				t.Errorf("%s: cold request reports no pass time (map %v order %v route %v)", surface, mapMS, orderMS, routeMS)
			}
			return
		}
		if mapMS != 0 || orderMS != 0 || routeMS != 0 {
			t.Errorf("%s: %s reports pass times map %v order %v route %v, want 0", surface, kind, mapMS, orderMS, routeMS)
		}
	}

	seen := map[string]int{}
	for _, line := range waitForLines(t, logSink, 3) {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
		}
		num := func(field string) float64 { v, _ := ev[field].(float64); return v }
		kind := class(ev[obsv.FieldCacheHit] == true, ev[obsv.FieldSkeletonHit] == true)
		seen["log "+kind]++
		check("wide event", kind, num(obsv.FieldMapMS), num(obsv.FieldOrderMS), num(obsv.FieldRouteMS))
	}
	_, recent := s.InspectorSnapshot()
	for _, rec := range recent {
		kind := class(rec.CacheHit, rec.SkeletonHit)
		seen["inspector "+kind]++
		check("inspector", kind, rec.MapMS, rec.OrderMS, rec.RouteMS)
	}
	for _, kind := range []string{"cold", "skeleton hit", "full-key hit"} {
		if seen["log "+kind] != 1 || seen["inspector "+kind] != 1 {
			t.Errorf("%s: %d wide events, %d inspector records, want 1 each", kind, seen["log "+kind], seen["inspector "+kind])
		}
	}
}

// Every successful request carries its own phases on both surfaces: a
// cache or skeleton hit no longer reports only zero pass times. A
// full-key hit that asks for QASM its bind did not render rebinds it, so
// it reports a bind phase too. The phases never add up to more than the
// request's duration.
func TestRequestPhasesOnEveryHit(t *testing.T) {
	logSink := &lockedBuffer{}
	s, ts, _ := newTestServer(t, Config{Log: obsv.NewLogger(logSink)})

	cold := angleRequest("tokyo", 8, 3, "IC", []float64{0.5}, []float64{0.2})
	skelHit := angleRequest("tokyo", 8, 3, "IC", []float64{0.9}, []float64{0.1})
	lazyQASM := cold
	lazyQASM.Config.EmitQASM = true
	reqs := []CompileRequest{cold, skelHit, cold, lazyQASM}
	for _, req := range reqs {
		if st, _, fail := postCompile(t, ts.URL, req); st != http.StatusOK {
			t.Fatalf("status %d: %+v", st, fail)
		}
	}

	phases := []string{obsv.FieldDecodeMS, obsv.FieldLookupMS, obsv.FieldBindMS, obsv.FieldRenderMS, obsv.FieldWriteMS}
	for i, line := range waitForLines(t, logSink, len(reqs)) {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
		}
		for _, f := range phases {
			if _, ok := ev[f].(float64); !ok {
				t.Errorf("wide event %d lacks phase %s: %s", i, f, line)
			}
		}
	}

	_, recent := s.InspectorSnapshot()
	if len(recent) != len(reqs) {
		t.Fatalf("%d inspector records, want %d", len(recent), len(reqs))
	}
	for i, rec := range recent {
		sum := rec.DecodeMS + rec.LookupMS + rec.BindMS + rec.RenderMS + rec.WriteMS
		if rec.DecodeMS <= 0 || rec.RenderMS+rec.WriteMS <= 0 {
			t.Errorf("record %d (%s): decode %v render %v write %v, want decode and response phases", i, rec.ID, rec.DecodeMS, rec.RenderMS, rec.WriteMS)
		}
		if sum > rec.DurationMS+0.001 { // the duration is truncated to whole µs
			t.Errorf("record %d (%s): phases sum to %v ms, over the duration %v ms", i, rec.ID, sum, rec.DurationMS)
		}
	}
	// recent is newest first: the lazy-QASM full-key hit, the full-key hit,
	// the skeleton hit, the cold request.
	if lazy, full, skel := recent[0], recent[1], recent[2]; !lazy.CacheHit || lazy.SkeletonHit || !full.CacheHit || !skel.SkeletonHit {
		t.Fatalf("request classes out of order: %+v %+v %+v", lazy, full, skel)
	} else if full.BindMS != 0 {
		t.Errorf("full-key hit without QASM reports bind %v ms", full.BindMS)
	}
}

// serve/request is recorded once per request, by finishRequest: its count
// equals serve/requests across a cold compile, a cache hit and a bad
// request.
func TestServeRequestSpanOncePerRequest(t *testing.T) {
	logSink := &lockedBuffer{}
	_, ts, col := newTestServer(t, Config{Log: obsv.NewLogger(logSink)})
	req := ringRequest("tokyo", 6, 3, "IC")
	for i := 0; i < 2; i++ {
		if st, _, fail := postCompile(t, ts.URL, req); st != http.StatusOK {
			t.Fatalf("status %d: %+v", st, fail)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	waitForLines(t, logSink, 3) // the wide event follows the span
	snap := col.Snapshot()
	var spans int64
	for _, sp := range snap.Spans {
		if sp.Name == obsv.SpanServeRequest {
			spans = sp.Count
		}
	}
	if reqs := snap.Counters[obsv.CntServeRequests]; reqs != 3 || spans != reqs {
		t.Errorf("serve/request span count %d, serve/requests %d, want 3 each", spans, reqs)
	}
	if snap.Counters[obsv.CntServeCacheHits] != 1 || snap.Counters[obsv.CntServeBadRequests] != 1 {
		t.Errorf("request classes: %d cache hits, %d bad requests, want 1 each",
			snap.Counters[obsv.CntServeCacheHits], snap.Counters[obsv.CntServeBadRequests])
	}
}
