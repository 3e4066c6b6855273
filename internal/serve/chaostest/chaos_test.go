// Package chaostest subjects the qaoad serve stack to combined failure
// modes — injected pass faults and panics, seeded device degradation,
// random client disconnects, deadline storms, concurrent calibration
// reloads — and asserts the robustness invariants hold: every response is
// a well-formed success or typed error, equal cache keys always carry
// byte-identical circuits, the metric registry stays clean, flights drain,
// and no goroutines leak. CI runs this package with -race.
package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/leaktest"
	"repro/internal/obsv"
	"repro/internal/serve"
)

// chaosHarness is one fully-wired chaotic server: fault-injecting hook,
// healthy and degraded devices, aggressive breaker so every state is
// exercised within a short test.
func chaosHarness(t *testing.T, faults *faultinject.PassFaults) (*serve.Server, *httptest.Server, *obsv.Collector) {
	t.Helper()
	degraded, _, err := faultinject.Spec{Seed: 5, DeadQubits: 3, DropEdgeFrac: 0.1}.Apply(device.Falcon27())
	if err != nil {
		t.Fatal(err)
	}
	col := obsv.New()
	s := serve.New(serve.Config{
		Devices: map[string]*device.Device{
			"tokyo":           device.Tokyo20(),
			"melbourne":       device.Melbourne15(),
			"falcon-degraded": degraded,
		},
		Workers:         3,
		Queue:           4,
		DefaultDeadline: 10 * time.Second,
		CompileBudget:   10 * time.Second,
		Retries:         1,
		Backoff:         500 * time.Microsecond,
		Breaker: serve.BreakerConfig{
			Window: time.Second, MinRequests: 6, FailureRate: 0.6,
			Cooldown: 30 * time.Millisecond, HalfOpenProbes: 2,
		},
		Hook: faults.Hook(),
		Obs:  col,
	})
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	return s, ts, col
}

// chaosRequest builds a deterministic random compile document.
func chaosRequest(rng *rand.Rand) serve.CompileRequest {
	devices := []string{"tokyo", "melbourne", "falcon-degraded"}
	policies := []string{"NAIVE", "GreedyV", "QAIM", "IP", "IC", "VIC"}
	n := 4 + rng.Intn(8)
	seen := map[[2]int]bool{}
	var edges [][2]int
	for v := 0; v < n; v++ {
		e := [2]int{v, (v + 1) % n}
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		seen[e] = true
		edges = append(edges, e)
	}
	for c := 0; c < n/3; c++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return serve.CompileRequest{
		DeviceName: devices[rng.Intn(len(devices))],
		Circuit:    serve.CircuitDoc{N: n, Edges: edges},
		Config: serve.ConfigDoc{
			Policy: policies[rng.Intn(len(policies))],
			Seed:   int64(rng.Intn(32) + 1),
		},
	}
}

// checkNoGoroutineLeak fails t unless the goroutine count returns to the
// baseline plus slack for runtime helpers.
func checkNoGoroutineLeak(t *testing.T, baseline int) { leaktest.Check(t, baseline+3) }

// TestChaosStorm is the main harness: concurrent clients firing randomized
// requests while pass faults, panics, latency, short deadlines, client
// disconnects and calibration reloads all happen at once.
func TestChaosStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	faults := &faultinject.PassFaults{ErrorEvery: 11, PanicEvery: 29, Latency: 300 * time.Microsecond}
	s, ts, col := chaosHarness(t, faults)

	const clients = 12
	const perClient = 10
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses = map[int]int{}
		kinds    = map[string]int{}
		// byKey records every 200's circuit per cache key: equal keys MUST
		// carry byte-identical circuits, chaos or not.
		byKey = map[string]string{}
	)
	client := &http.Client{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				doc := chaosRequest(rng)
				mode := rng.Intn(6)
				switch mode {
				case 0: // deadline storm
					doc.Config.DeadlineMS = int64(1 + rng.Intn(15))
				case 1: // client disconnect mid-flight
				}
				body, err := json.Marshal(doc)
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if mode == 1 {
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(8)+1)*time.Millisecond)
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				resp, err := client.Do(req)
				cancel()
				if err != nil {
					// Disconnected client: the server must absorb it; nothing
					// to assert on this response.
					continue
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					var ok serve.CompileResponse
					if err := json.Unmarshal(data, &ok); err != nil {
						t.Errorf("bad 200 body: %v", err)
						continue
					}
					if ok.Circuit == "" || ok.Depth <= 0 || len(ok.FinalLayout) != doc.Circuit.N {
						t.Errorf("partial success payload: depth=%d gates=%d layout=%d",
							ok.Depth, ok.Gates, len(ok.FinalLayout))
					}
					mu.Lock()
					if prev, seen := byKey[ok.CacheKey]; seen && prev != ok.Circuit {
						t.Errorf("cache corruption: key %.12s served two different circuits", ok.CacheKey)
					} else {
						byKey[ok.CacheKey] = ok.Circuit
					}
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout, http.StatusInternalServerError:
					var fail serve.ErrorResponse
					if err := json.Unmarshal(data, &fail); err != nil || fail.Kind == "" {
						t.Errorf("status %d with malformed error body: %s", resp.StatusCode, data)
					}
					mu.Lock()
					kinds[fail.Kind]++
					mu.Unlock()
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, data)
				}
			}
		}(c)
	}

	// Inspector scraper: GET /debug/requests mid-storm must always return a
	// well-formed page (no torn reads, no races with handlers mutating
	// records), in both JSON and text form. Runs until the storm ends.
	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; ; i++ {
			select {
			case <-stopScrape:
				return
			case <-time.After(5 * time.Millisecond):
			}
			url := ts.URL + "/debug/requests"
			if i%3 == 2 {
				url += "?format=text"
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("inspector scrape: %v", err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("inspector scrape: status %d", resp.StatusCode)
				return
			}
			if i%3 == 2 {
				if !bytes.Contains(data, []byte("ACTIVE")) {
					t.Errorf("inspector text page malformed: %.200s", data)
				}
				continue
			}
			var page struct {
				Total  uint64                   `json:"total_requests"`
				Active []map[string]interface{} `json:"active"`
				Recent []map[string]interface{} `json:"recent"`
			}
			if err := json.Unmarshal(data, &page); err != nil {
				t.Errorf("inspector page not JSON: %v\n%.200s", err, data)
				return
			}
			if int(page.Total) < len(page.Active) {
				t.Errorf("inspector invariant broken: total %d < active %d", page.Total, len(page.Active))
			}
			for _, r := range page.Active {
				if r["id"] == "" || r["id"] == nil {
					t.Errorf("active record without id: %v", r)
				}
			}
		}
	}()

	// Calibration reloader: concurrent epoch bumps + cache invalidation
	// while the storm runs.
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		doc, err := device.Melbourne15().MarshalJSON()
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			time.Sleep(10 * time.Millisecond)
			resp, err := http.Post(ts.URL+"/v1/devices/melbourne/calibration", "application/json", bytes.NewReader(doc))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("calibration reload %d: status %d", i, resp.StatusCode)
			}
		}
	}()

	wg.Wait()
	<-reloadDone
	close(stopScrape)
	<-scrapeDone
	t.Logf("statuses: %v kinds: %v faults-injected-calls: %d", statuses, kinds, faults.Calls())

	// Every request the storm fired must have registered with the inspector.
	if clients*perClient > 0 {
		if _, recent := s.InspectorSnapshot(); len(recent) == 0 {
			t.Error("inspector saw no finished requests after the storm")
		}
	}

	// The storm must have actually exercised the machinery.
	if statuses[http.StatusOK] == 0 {
		t.Error("chaos produced zero successes — nothing was exercised")
	}
	if col.Counter(obsv.CntServeRequests) == 0 || col.Counter(obsv.CntServeCompiles) == 0 {
		t.Error("serve counters flat — storm did not reach the server")
	}
	// Every recorded metric name must be registered (the obsv gate).
	if bad := col.Snapshot().Unregistered(); len(bad) != 0 {
		t.Errorf("unregistered metric names: %v", bad)
	}
	// Shed accounting never under-counts: clients can miss a 429 (they
	// disconnected first) but can never observe more than the server shed.
	if observed := int64(statuses[http.StatusTooManyRequests]); observed > col.Counter(obsv.CntServeShed) {
		t.Errorf("clients saw %d 429s, server counted %d", observed, col.Counter(obsv.CntServeShed))
	}

	// After the storm the server still serves clean traffic and the cache
	// is intact: a fresh healthy request compiles (or hits) fine, twice,
	// identically. Faults stay armed (mutating them here would race with
	// detached flights still calling the hook), so retry through transient
	// failures and breaker cooldowns until the server recovers.
	sane := serve.CompileRequest{
		DeviceName: "tokyo",
		Circuit:    serve.CircuitDoc{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}},
		Config:     serve.ConfigDoc{Policy: "IC", Seed: 77},
	}
	saneBody, err := json.Marshal(sane)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	deadline := time.Now().Add(10 * time.Second)
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(saneBody))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var ok serve.CompileResponse
			if err := json.Unmarshal(data, &ok); err != nil {
				t.Fatal(err)
			}
			if first == "" {
				first = ok.Circuit
				continue // once more, for the identity check
			}
			if ok.Circuit != first || !ok.Cached {
				t.Error("post-chaos repeat compile not served identically from cache")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after chaos: status %d %s", resp.StatusCode, data)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Drain under a deadline, then everything must unwind.
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	// No leaked inspector records: every request that registered must have
	// deregistered by the time the server drained.
	if n := s.ActiveRequests(); n != 0 {
		t.Errorf("inspector leaks %d active records after drain", n)
	}
	ts.Close()
	s.Close()
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}

// TestDeadlineStormDrainsClean fires nothing but near-expired deadlines at
// slow compiles: every request must resolve to a typed timeout (or shed),
// the detached flights must finish server-side, and Drain must return
// without hitting its deadline.
func TestDeadlineStormDrainsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	faults := &faultinject.PassFaults{Latency: 5 * time.Millisecond}
	s, ts, col := chaosHarness(t, faults)

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + c)))
			for i := 0; i < 6; i++ {
				doc := chaosRequest(rng)
				doc.Config.DeadlineMS = 1
				body, err := json.Marshal(doc)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusGatewayTimeout, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("statuses: %v deadline-exceeded: %d", statuses, col.Counter(obsv.CntServeDeadlineExceeded))
	if col.Counter(obsv.CntServeDeadlineExceeded) == 0 {
		t.Error("no request timed out under a 1ms deadline storm — storm ineffective")
	}

	// Abandoned flights keep running detached; Drain must still converge
	// well inside its budget.
	start := time.Now()
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Errorf("drain after deadline storm: %v", err)
	}
	if n := s.ActiveRequests(); n != 0 {
		t.Errorf("inspector leaks %d active records after deadline storm", n)
	}
	t.Logf("drained in %s", time.Since(start).Round(time.Millisecond))
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}

// TestDrainDeadlineAbortsStuckFlights wedges a compile inside a pass that
// ignores its context (a 3s uninterruptible sleep) and verifies an
// expiring drain returns within its grace period instead of hanging
// shutdown until the pass finishes. The wedged goroutine unwinds once its
// sleep ends and it observes the canceled lifecycle context, which the
// leak check confirms.
func TestDrainDeadlineAbortsStuckFlights(t *testing.T) {
	baseline := runtime.NumGoroutine()
	faults := &faultinject.PassFaults{Latency: 3 * time.Second}
	s, ts, _ := chaosHarness(t, faults)

	body, err := json.Marshal(serve.CompileRequest{
		DeviceName: "tokyo",
		Circuit:    serve.CircuitDoc{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}},
		Config:     serve.ConfigDoc{Policy: "IC", Seed: 1, DeadlineMS: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (flight wedged server-side)", resp.StatusCode)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Drain(dctx)
	if err == nil {
		t.Error("drain reported success despite a wedged flight")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("drain took %s; deadline+grace should have returned well under 1s", elapsed)
	}
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}
