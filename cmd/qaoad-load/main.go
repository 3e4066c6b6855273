// Command qaoad-load is the deterministic load generator for qaoad. It
// drives four phases against a server — warm (fill the compiled-circuit
// cache), cached (sustained throughput over the warm keys, measuring p50/
// p99 latency and req/s), sweep (an angle-tuning client: the same few
// structures with ever-different angles, which must be served by binding
// cached routed skeletons rather than recompiling), and overload (a
// deliberate burst of distinct uncached compiles that must shed cleanly
// with 429s, never 5xx) — and writes a schema-versioned BENCH record of
// the results.
//
// The workload is a pure function of -seed: the same circuits in the same
// order every run. Shed accounting is verified exactly: the client-observed
// 429 count must equal the server's serve/shed counter delta over the
// overload phase, proving no response path is double- or under-counted.
//
// By default it boots an in-process qaoad server on a loopback port;
// -addr points it at an externally running daemon instead.
//
// Usage:
//
//	qaoad-load -metrics-out BENCH_serve.json -min-throughput 500
//	qaoad-load -addr 127.0.0.1:8080
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/qaoac"
)

func main() {
	var (
		addr      = flag.String("addr", "", "address of a running qaoad (default: boot an in-process server)")
		devName   = flag.String("device", "tokyo", "registered device the workload compiles against")
		warmN     = flag.Int("warm", 24, "distinct circuits compiled during the warm phase (the cached working set)")
		requests  = flag.Int("requests", 4000, "total requests of the cached phase")
		clients   = flag.Int("clients", 16, "concurrent clients of the cached phase")
		overN     = flag.Int("overload", 192, "distinct uncached circuits of the overload burst")
		overCli   = flag.Int("overload-clients", 48, "concurrent clients of the overload burst")
		sweepN    = flag.Int("sweep", 96, "angle-sweep phase: total distinct-angle requests (0 disables the phase)")
		sweepG    = flag.Int("sweep-graphs", 4, "angle-sweep phase: distinct graph structures the angle points spread over")
		seed      = flag.Int64("seed", 7, "workload seed: circuits and schedules are a pure function of it")
		minRPS    = flag.Float64("min-throughput", 0, "fail unless the cached phase sustains at least this many req/s (0 = no gate)")
		minShed   = flag.Int("min-shed", 0, "fail unless the overload phase sheds at least this many requests (0 = no gate)")
		minSkel   = flag.Float64("min-skeleton-hit-rate", 0, "fail unless the sweep phase's skeleton-tier hit rate reaches this fraction (0 = no gate)")
		injectLat = flag.Duration("inject-latency", 0, "in-process server: inject this much latency into every compile pass (makes overload shedding reproducible on small machines)")
		workers   = flag.Int("workers", 4, "in-process server: maximum concurrent compile flights")
		queue     = flag.Int("queue", 0, "in-process server: admission queue bound (default 4×workers)")
		out       = flag.String("metrics-out", "", "write the BENCH_*.json record to this path")
		rev       = flag.String("rev", "", "revision stamped into the record (default $GITHUB_SHA, then \"dev\")")
		logOut    = flag.String("log", "", "write one JSON wide-event summary line per phase to this file (\"-\" for stderr, empty disables)")
		availBurn = flag.Float64("max-availability-burn", 0, "fail when the service-wide SLO availability burn rate exceeds this after the run (negative disables the gate)")
	)
	flag.Parse()
	if err := run(*addr, *devName, *warmN, *requests, *clients, *overN, *overCli, *sweepN, *sweepG, *seed, *minRPS,
		*minShed, *minSkel, *injectLat, *workers, *queue, *out, *rev, *logOut, *availBurn); err != nil {
		fmt.Fprintln(os.Stderr, "qaoad-load:", err)
		os.Exit(1)
	}
}

func run(addr, devName string, warmN, requests, clients, overN, overCli, sweepN, sweepG int, seed int64, minRPS float64,
	minShed int, minSkel float64, injectLat time.Duration, workers, queue int, out, rev, logOut string, availBurn float64) error {
	col := obsv.New()

	logW, closeLog, err := qaoac.OpenLogWriter(logOut)
	if err != nil {
		return err
	}
	defer closeLog()
	logger := qaoac.NewWideLogger(logW)
	if addr == "" {
		// The optional injected pass latency models real-hardware compile
		// times on machines too small for CPU-bound compiles to overlap
		// (sleeps yield the CPU, so concurrent requests genuinely pile up
		// at admission and the overload phase sheds reproducibly).
		var hook compile.Hook
		if injectLat > 0 {
			hook = func(string) error { time.Sleep(injectLat); return nil }
		}
		srv := serve.New(serve.Config{Workers: workers, Queue: queue, Obs: col, Hook: hook})
		srv.MarkReady()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := serve.NewHTTPServer(srv.Handler())
		go hs.Serve(ln) // the deferred hs.Shutdown ends Serve
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Drain(ctx)
			hs.Shutdown(ctx)
			srv.Close()
		}()
		addr = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "qaoad-load: in-process server on %s (workers=%d)\n", addr, workers)
	}
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * (clients + overCli),
		MaxIdleConnsPerHost: 2 * (clients + overCli),
	}}

	rng := rand.New(rand.NewSource(seed))
	// Warm working set: small p=1 IC circuits (the cached-throughput
	// subject). Overload burst: large p=12 VIC circuits — slow enough that
	// the worker pool and queue demonstrably fill and the rest shed.
	warm := genCircuits(rng, warmN, devName, "IC", 6, 14, 1)
	over := genCircuits(rng, overN, devName, "VIC", 16, 20, 12)

	// Phase 1: warm. Every circuit compiles once; the cache now holds the
	// working set the cached phase replays. Client-side latencies of this
	// phase are the uncached sample the server-histogram cross-check uses.
	_, uncachedBefore, err := scrapeHistogram(client, base, "qaoa_serve_request_uncached_ms")
	if err != nil {
		return err
	}
	warmLat := make([]float64, 0, warmN)
	startWarm := time.Now()
	for i, body := range warm {
		t0 := time.Now()
		st, _, err := post(client, base, body)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("warm %d: %w", i, err)
		}
		if st != http.StatusOK {
			return fmt.Errorf("warm %d: status %d", i, st)
		}
		warmLat = append(warmLat, float64(d.Microseconds())/1000.0)
	}
	warmWall := time.Since(startWarm)
	sort.Float64s(warmLat)
	warmP50, warmP99 := pct(warmLat, 0.50), pct(warmLat, 0.99)
	uncachedHist, err := scrapeHistogramDelta(client, base, "qaoa_serve_request_uncached_ms", uncachedBefore)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qaoad-load: warm done (%d circuits, p50 %.2fms p99 %.2fms)\n", warmN, warmP50, warmP99)

	// Phase 2: cached throughput. Each client replays the warm working set
	// round-robin from its own offset; every response must be a cache hit.
	var (
		mu        sync.Mutex
		latencies = make([]float64, 0, requests)
		bad       int
		firstErr  error
	)
	_, cachedBefore, err := scrapeHistogram(client, base, "qaoa_serve_request_cached_ms")
	if err != nil {
		return err
	}
	perClient := requests / clients
	startCached := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := warm[(c+i)%len(warm)]
				t0 := time.Now()
				st, _, err := post(client, base, body)
				d := time.Since(t0)
				mu.Lock()
				if err != nil || st != http.StatusOK {
					bad++
					if firstErr == nil {
						firstErr = fmt.Errorf("cached client %d req %d: status %d err %v", c, i, st, err)
					}
				} else {
					latencies = append(latencies, float64(d.Microseconds())/1000.0)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	cachedWall := time.Since(startCached)
	if bad > 0 {
		return fmt.Errorf("cached phase: %d bad responses (first: %v)", bad, firstErr)
	}
	sort.Float64s(latencies)
	rps := float64(len(latencies)) / cachedWall.Seconds()
	p50, p99 := pct(latencies, 0.50), pct(latencies, 0.99)
	cachedHist, err := scrapeHistogramDelta(client, base, "qaoa_serve_request_cached_ms", cachedBefore)
	if err != nil {
		return err
	}
	fmt.Printf("cached:   %d req in %s = %.0f req/s, p50 %.2fms p99 %.2fms\n",
		len(latencies), cachedWall.Round(time.Millisecond), rps, p50, p99)

	// Cross-check the two latency vantage points: the server's histogram
	// quantiles must agree with the client-observed percentiles within one
	// histogram bucket (the histogram's whole resolution). A larger gap
	// means a response path records into the wrong histogram or not at all.
	cachedSrvP50, cachedSrvP99 := cachedHist.Quantile(0.50), cachedHist.Quantile(0.99)
	warmSrvP50, warmSrvP99 := uncachedHist.Quantile(0.50), uncachedHist.Quantile(0.99)
	fmt.Printf("server:   cached p50 %.2fms p99 %.2fms, uncached p50 %.2fms p99 %.2fms\n",
		cachedSrvP50, cachedSrvP99, warmSrvP50, warmSrvP99)
	checks := []struct {
		name           string
		hist           obsv.HistogramStat
		client, server float64
	}{
		{"cached p50", cachedHist, p50, cachedSrvP50},
		{"cached p99", cachedHist, p99, cachedSrvP99},
		{"uncached p50", uncachedHist, warmP50, warmSrvP50},
		{"uncached p99", uncachedHist, warmP99, warmSrvP99},
	}
	// The client vantage adds connection and scheduling overhead the server
	// never sees — cached loopback requests finish server-side in tens of
	// microseconds while the client pays milliseconds of transport and
	// local queuing, spanning many fine log-linear buckets. Below
	// crossCheckSlackMS of absolute difference that overhead dominates the
	// signal, so only larger gaps are held to the one-bucket rule; the gate
	// bites on compile-dominated latencies (the uncached phase) where a
	// misrecorded histogram would show up as tens of milliseconds of drift.
	const crossCheckSlackMS = 10.0
	for _, c := range checks {
		if c.hist.Count == 0 {
			return fmt.Errorf("server histogram for %s recorded no observations over the phase", c.name)
		}
		if math.Abs(c.client-c.server) <= crossCheckSlackMS {
			continue
		}
		ci, si := c.hist.BucketIndex(c.client), c.hist.BucketIndex(c.server)
		if diff := ci - si; diff < -1 || diff > 1 {
			return fmt.Errorf("%s: client %.2fms (bucket %d) and server %.2fms (bucket %d) disagree by more than one bucket",
				c.name, c.client, ci, c.server, si)
		}
	}

	phaseEvent(logger, "warm", warmN, float64(warmN)/warmWall.Seconds(), warmP50, warmP99)
	phaseEvent(logger, "cached", len(latencies), rps, p50, p99)

	// Phase 3: angle sweep. The same few structures with ever-different
	// angles — an angle-tuning client's traffic. The first request per
	// structure pays a routing pass; every later one must be served from
	// the skeleton tier (bind the cached routed skeleton, no routing), the
	// parameterized-compilation win the tier exists for.
	var sweepP50, sweepP99, sweepRPS, skelRate float64
	if sweepN > 0 {
		if sweepG <= 0 {
			sweepG = 1
		}
		if sweepG > sweepN {
			sweepG = sweepN
		}
		sweepDocs := genAngleSweep(rng, sweepG, sweepN, devName, "IC")
		skelBefore, err := scrapeCounter(client, base, "qaoa_serve_skeleton_hits_total")
		if err != nil {
			return err
		}
		sweepLat := make([]float64, 0, sweepN)
		startSweep := time.Now()
		for i, body := range sweepDocs {
			t0 := time.Now()
			st, _, err := post(client, base, body)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("sweep %d: %w", i, err)
			}
			if st != http.StatusOK {
				return fmt.Errorf("sweep %d: status %d", i, st)
			}
			sweepLat = append(sweepLat, float64(d.Microseconds())/1000.0)
		}
		sweepWall := time.Since(startSweep)
		skelAfter, err := scrapeCounter(client, base, "qaoa_serve_skeleton_hits_total")
		if err != nil {
			return err
		}
		// The first touch of each structure routes; every later request is
		// bindable, and the hit rate is measured against exactly those.
		if bindable := sweepN - sweepG; bindable > 0 {
			skelRate = float64(skelAfter-skelBefore) / float64(bindable)
		}
		sort.Float64s(sweepLat)
		sweepRPS = float64(len(sweepLat)) / sweepWall.Seconds()
		sweepP50, sweepP99 = pct(sweepLat, 0.50), pct(sweepLat, 0.99)
		fmt.Printf("sweep:    %d req over %d structures in %s = %.0f req/s, p50 %.2fms p99 %.2fms, skeleton hit rate %.3f\n",
			sweepN, sweepG, sweepWall.Round(time.Millisecond), sweepRPS, sweepP50, sweepP99, skelRate)
		phaseEvent(logger, "sweep", sweepN, sweepRPS, sweepP50, sweepP99)
	}

	// Phase 4: overload. Distinct uncached compiles driven closed-loop:
	// overload-clients workers each march through their slice of the burst
	// back-to-back, so in-flight pressure stays above the server's
	// workers+queue capacity for the whole phase regardless of connection-
	// setup stagger. The well-behaved outcomes are 200 (admitted) and 429
	// (shed); anything 5xx is a robustness bug.
	shedBefore, err := scrapeCounter(client, base, "qaoa_serve_shed_total")
	if err != nil {
		return err
	}
	var ok200, shed429, http5xx, other int
	start := make(chan struct{})
	startOver := time.Now()
	for c := 0; c < overCli; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := c; i < len(over); i += overCli {
				st, _, err := post(client, base, over[i])
				mu.Lock()
				switch {
				case err != nil:
					other++
				case st == http.StatusOK:
					ok200++
				case st == http.StatusTooManyRequests:
					shed429++
				case st >= 500:
					http5xx++
				default:
					other++
				}
				mu.Unlock()
			}
		}(c)
	}
	close(start)
	wg.Wait()
	overWall := time.Since(startOver)
	shedAfter, err := scrapeCounter(client, base, "qaoa_serve_shed_total")
	if err != nil {
		return err
	}
	serverShed := shedAfter - shedBefore
	fmt.Printf("overload: %d req in %s: %d ok, %d shed (429), %d 5xx, %d other; server shed delta %d\n",
		overN, overWall.Round(time.Millisecond), ok200, shed429, http5xx, other, serverShed)

	ev := (&obsv.WideEvent{}).
		Str(obsv.FieldPhase, "overload").
		Int(obsv.FieldRequests, int64(overN)).
		Float(obsv.FieldReqPerSec, float64(overN)/overWall.Seconds()).
		Int(obsv.FieldShed, int64(shed429)).
		Int(obsv.FieldHTTP5xx, int64(http5xx))
	ev.Emit(logger, "load_phase")

	// SLO burn-rate gate: the run must leave the service-wide availability
	// objective unburned — overload shedding is 429s, which by design spend
	// no availability budget, so any burn means a genuine server fault.
	burn, err := scrapeGauge(client, base, `qaoa_slo_availability_burn_rate{preset="all"}`)
	if err != nil {
		return err
	}
	fmt.Printf("slo:      availability burn rate %.4g (gate %.4g)\n", burn, availBurn)

	if out != "" {
		// In-process runs fold the server's own counters (shed, cache hits,
		// singleflight shares) into the record; against a remote server the
		// collector is empty and /metrics is the source of truth.
		rep := obsv.NewReport("qaoad-load", qaoac.RevisionFromEnv(rev), col)
		rep.Benchmarks = []obsv.Benchmark{
			{Name: "serve/warm", Instances: warmN, ReqPerSec: float64(warmN) / warmWall.Seconds(),
				P50MS: warmP50, P99MS: warmP99, ServerP50MS: warmSrvP50, ServerP99MS: warmSrvP99},
			{Name: "serve/cached", Instances: len(latencies), ReqPerSec: rps, P50MS: p50, P99MS: p99,
				ServerP50MS: cachedSrvP50, ServerP99MS: cachedSrvP99},
		}
		if sweepN > 0 {
			rep.Benchmarks = append(rep.Benchmarks, obsv.Benchmark{
				Name: "serve/sweep", Instances: sweepN, ReqPerSec: sweepRPS,
				P50MS: sweepP50, P99MS: sweepP99, SkeletonHitRate: skelRate,
			})
		}
		rep.Benchmarks = append(rep.Benchmarks, obsv.Benchmark{
			Name: "serve/overload", Instances: overN, ReqPerSec: float64(overN) / overWall.Seconds(),
			Shed: int64(shed429), HTTP5xx: int64(http5xx),
		})
		if err := rep.WriteFile(out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}

	// Gates, strictest last so every number above is always printed.
	if http5xx > 0 || other > 0 {
		return fmt.Errorf("overload phase returned %d 5xx and %d other failures; want only 200/429", http5xx, other)
	}
	if int64(shed429) != serverShed {
		return fmt.Errorf("shed accounting mismatch: clients saw %d 429s, server counted %d", shed429, serverShed)
	}
	if availBurn >= 0 && burn > availBurn {
		return fmt.Errorf("availability burn rate %.4g exceeds the -max-availability-burn gate %.4g", burn, availBurn)
	}
	if minRPS > 0 && rps < minRPS {
		return fmt.Errorf("cached throughput %.0f req/s below the -min-throughput gate %.0f", rps, minRPS)
	}
	if minShed > 0 && shed429 < minShed {
		return fmt.Errorf("overload phase shed %d requests, below the -min-shed gate %d", shed429, minShed)
	}
	if minSkel > 0 && sweepN > 0 && skelRate < minSkel {
		return fmt.Errorf("sweep skeleton-tier hit rate %.3f below the -min-skeleton-hit-rate gate %.3f", skelRate, minSkel)
	}
	return nil
}

// phaseEvent emits one wide-event summary line for a completed load phase.
func phaseEvent(logger *slog.Logger, phase string, n int, rps, p50, p99 float64) {
	ev := (&obsv.WideEvent{}).
		Str(obsv.FieldPhase, phase).
		Int(obsv.FieldRequests, int64(n)).
		Float(obsv.FieldReqPerSec, rps).
		Float(obsv.FieldP50MS, p50).
		Float(obsv.FieldP99MS, p99)
	ev.Emit(logger, "load_phase")
}

// genCircuits produces count deterministic compile-request bodies: random
// ring-plus-chords MaxCut instances of nmin..nmax nodes at p levels. Every
// document is a pure function of the rng stream.
func genCircuits(rng *rand.Rand, count int, devName, policy string, nmin, nmax, p int) [][]byte {
	docs := make([][]byte, count)
	for i := range docs {
		n := nmin + rng.Intn(nmax-nmin+1)
		seen := make(map[[2]int]bool)
		var edges [][2]int
		for v := 0; v < n; v++ {
			e := [2]int{v, (v + 1) % n}
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			seen[e] = true
			edges = append(edges, e)
		}
		for c := 0; c < n/2; c++ {
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
		req := serve.CompileRequest{
			DeviceName: devName,
			Circuit:    serve.CircuitDoc{N: n, Edges: edges},
			Config:     serve.ConfigDoc{Policy: policy, P: p, Seed: int64(i + 1), DeadlineMS: 60000},
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct we just built cannot fail to marshal
		}
		docs[i] = body
	}
	return docs
}

// genAngleSweep produces the angle-tuning workload: graphs distinct
// ring-plus-chords structures (the genCircuits recipe) revisited
// round-robin for count total requests, every request carrying a fresh
// (γ, β) pair at p=1. Structure and seed repeat exactly across visits, so
// all requests against one structure share an angle-free skeleton key
// server-side; only the angles change between them.
func genAngleSweep(rng *rand.Rand, graphs, count int, devName, policy string) [][]byte {
	type structure struct {
		n     int
		edges [][2]int
	}
	structs := make([]structure, graphs)
	for g := range structs {
		n := 6 + rng.Intn(9) // the warm-phase size band (6..14 nodes)
		seen := make(map[[2]int]bool)
		var edges [][2]int
		for v := 0; v < n; v++ {
			e := [2]int{v, (v + 1) % n}
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			seen[e] = true
			edges = append(edges, e)
		}
		for c := 0; c < n/2; c++ {
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
		structs[g] = structure{n: n, edges: edges}
	}
	docs := make([][]byte, count)
	for i := range docs {
		s := structs[i%graphs]
		// A deterministic angle walk with every point distinct, avoiding the
		// default schedule so no request collides with a warm-phase document.
		gamma := 0.01 * float64(i+1)
		beta := 0.007 * float64(i+1)
		req := serve.CompileRequest{
			DeviceName: devName,
			Circuit:    serve.CircuitDoc{N: s.n, Edges: s.edges},
			Config: serve.ConfigDoc{Policy: policy, P: 1, Seed: int64(i%graphs + 1), DeadlineMS: 60000,
				Gamma: []float64{gamma}, Beta: []float64{beta}},
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct we just built cannot fail to marshal
		}
		docs[i] = body
	}
	return docs
}

func post(client *http.Client, base string, body []byte) (status int, resp []byte, err error) {
	r, err := client.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	return r.StatusCode, data, err
}

// pct returns the q-th percentile of sorted (nearest-rank).
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// scrapeHistogram reads one histogram's cumulative bucket counts from the
// Prometheus text endpoint: ascending bounds (the le labels, excluding
// +Inf) and the cumulative counts including the final +Inf bucket. A
// histogram that was never observed reads as empty (nil, nil).
func scrapeHistogram(client *http.Client, base, name string) (bounds []float64, cum []int64, err error) {
	r, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer r.Body.Close()
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		end := strings.Index(rest, `"}`)
		if end < 0 {
			return nil, nil, fmt.Errorf("malformed bucket line %q", line)
		}
		le, val := rest[:end], strings.TrimSpace(rest[end+2:])
		c, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		if le == "+Inf" {
			cum = append(cum, c)
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		bounds = append(bounds, b)
		cum = append(cum, c)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(cum) > 0 && len(cum) != len(bounds)+1 {
		return nil, nil, fmt.Errorf("histogram %s: %d bounds but %d cumulative counts", name, len(bounds), len(cum))
	}
	return bounds, cum, nil
}

// scrapeHistogramDelta reads the histogram again and returns the per-bucket
// counts accumulated since the before scrape — the phase-local distribution
// even against a server with prior traffic.
func scrapeHistogramDelta(client *http.Client, base, name string, beforeCum []int64) (obsv.HistogramStat, error) {
	bounds, after, err := scrapeHistogram(client, base, name)
	if err != nil {
		return obsv.HistogramStat{}, err
	}
	if len(after) == 0 {
		return obsv.HistogramStat{Name: name}, nil
	}
	if len(beforeCum) != 0 && len(beforeCum) != len(after) {
		return obsv.HistogramStat{}, fmt.Errorf("histogram %s changed shape mid-run (%d -> %d buckets)", name, len(beforeCum), len(after))
	}
	counts := make([]int64, len(after)) // per-bucket, overflow last
	var prev int64
	for i, c := range after {
		if len(beforeCum) != 0 {
			c -= beforeCum[i]
		}
		counts[i] = c - prev
		prev = c
	}
	var total int64
	for _, c := range counts {
		if c < 0 {
			return obsv.HistogramStat{}, fmt.Errorf("histogram %s: bucket count went backwards over the phase", name)
		}
		total += c
	}
	return obsv.HistogramStat{Name: name, Bounds: bounds, Counts: counts, Count: total}, nil
}

// scrapeGauge reads one gauge sample (the series name including any label
// set, verbatim) from the Prometheus text endpoint; missing series read 0.
func scrapeGauge(client *http.Client, base, series string) (float64, error) {
	r, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("scraping metrics: %w", err)
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series)), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return v, nil
	}
	return 0, sc.Err()
}

// scrapeCounter reads one counter from the Prometheus text endpoint.
// Missing counters read 0 (obsv only emits counters that were recorded).
func scrapeCounter(client *http.Client, base, name string) (int64, error) {
	r, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("scraping metrics: %w", err)
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, name)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", line, err)
		}
		return v, nil
	}
	return 0, sc.Err()
}
