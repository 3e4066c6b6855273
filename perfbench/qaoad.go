package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/qasm"
	"repro/internal/serve"
)

// qaoad sizing. Both workloads drive an in-process serve.Server configured
// like cmd/qaoad's defaults (collector on, warm-up before ready) through
// its HTTP handler, with structures of 8–16 nodes at p=1 on tokyo.
const (
	qaoadMinN, qaoadMaxN = 8, 16
	qaoadHotStructures   = 512  // the hot working set, compiled during set-up
	qaoadHotOps          = 8192 // requests per pass of qaoad-hot
	qaoadColdOps         = 4096 // requests per pass of qaoad-cold, each a new structure
	qaoadWarmupOps       = 4
	qaoadProbe           = 256 // leading requests whose served circuits are scored

	// Every fifth hot request brings new angles (a skeleton hit) and the
	// rest repeat a served angle set (a full-key hit): at 80/20 the p50
	// falls inside the full-hit class and the tail inside the skeleton-hit
	// class, away from where the two meet.
	qaoadSkelEvery = 5

	// Error rates of the depolarizing estimate behind arg_pct on the qaoad
	// workloads: the mean CNOT error of the synthetic calibration Fig. 11(a)
	// puts on tokyo, and a tenth of it per one-qubit gate.
	cxError, oneQError = 1e-2, 1e-3
)

var qaoadPresets = []string{"QAIM", "IP", "IC"}

// Request classes: how the request was built, and so what the server must
// answer.
const (
	classFull = "full" // repeats an angle set already served: full-key hit
	classSkel = "skel" // new angles on a cached structure: skeleton hit
	classCold = "cold" // new structure: compile flight
)

type structure struct {
	g      *graphs.Graph
	preset string
	seed   int64
}

type request struct {
	body        []byte
	st          int
	class       string
	gamma, beta float64
}

type served struct{ depth, swaps, gates int }

type qaoadSession struct {
	cold   bool
	dev    *device.Device // the coupling the checks use
	sts    []structure
	base   []request // hot: one first-serve request per structure
	reqs   []request
	warmup []request
	srv    *serve.Server
	obs    *obsv.Collector
	// byKey holds a hash of the first circuit served per request key, to
	// check that identical requests get byte-identical circuits.
	byKey map[string][sha256.Size]byte
	first []served
}

func bootQaoad(ctx context.Context, seed int64, cold bool) (session, error) {
	s := &qaoadSession{cold: cold, dev: device.Tokyo20(), byKey: map[string][sha256.Size]byte{}}
	rng := rand.New(rand.NewSource(seed))
	newStructure := func() int {
		s.sts = append(s.sts, randomStructure(rng))
		return len(s.sts) - 1
	}
	angles := func() (float64, float64) {
		return 0.8 * (0.8 + 0.4*rng.Float64()), 0.4 * (0.8 + 0.4*rng.Float64())
	}
	mk := func(st int, class string, gamma, beta float64) request {
		return request{body: s.body(st, gamma, beta), st: st, class: class, gamma: gamma, beta: beta}
	}
	if cold {
		for i := 0; i < qaoadColdOps+qaoadWarmupOps; i++ {
			g, b := angles()
			s.reqs = append(s.reqs, mk(newStructure(), classCold, g, b))
		}
		s.reqs, s.warmup = s.reqs[:qaoadColdOps], s.reqs[qaoadColdOps:]
	} else {
		for i := 0; i < qaoadHotStructures; i++ {
			g, b := angles()
			s.base = append(s.base, mk(newStructure(), classFull, g, b))
		}
		for i := 0; i < qaoadHotOps; i++ {
			b := s.base[i%len(s.base)]
			if i%qaoadSkelEvery == qaoadSkelEvery-1 {
				s.reqs = append(s.reqs, mk(b.st, classSkel, b.gamma*(1+0.1*rng.NormFloat64()), b.beta*(1+0.1*rng.NormFloat64())))
			} else {
				s.reqs = append(s.reqs, b)
			}
		}
		s.warmup = s.base[:qaoadWarmupOps]
	}
	s.first = make([]served, len(s.reqs))
	if err := s.start(ctx, obsv.New()); err != nil {
		return nil, err
	}
	return s, nil
}

// randomStructure draws one MaxCut structure: an ER graph of density
// 0.3–0.5 or a 3-regular graph on 8–16 nodes, a preset and a seed.
func randomStructure(rng *rand.Rand) structure {
	for {
		n := qaoadMinN + rng.Intn(qaoadMaxN-qaoadMinN+1)
		var g *graphs.Graph
		if n%2 == 0 && rng.Intn(2) == 0 {
			g = graphs.MustRandomRegular(n, 3, rng)
		} else {
			g = graphs.ErdosRenyi(n, 0.3+0.2*rng.Float64(), rng)
		}
		st := structure{g: g, preset: qaoadPresets[rng.Intn(len(qaoadPresets))], seed: 1 + rng.Int63n(1<<31)}
		if g.M() > 0 {
			return st
		}
	}
}

// body encodes the compile request of structure st at (gamma, beta). Cold
// clients ask for the native QASM too; hot ones take the circuit only.
func (s *qaoadSession) body(st int, gamma, beta float64) []byte {
	g := s.sts[st].g
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	b, err := json.Marshal(serve.CompileRequest{
		DeviceName: "tokyo",
		Circuit:    serve.CircuitDoc{N: g.N(), Edges: edges},
		Config: serve.ConfigDoc{Policy: s.sts[st].preset, P: 1, Gamma: []float64{gamma}, Beta: []float64{beta},
			Seed: s.sts[st].seed, EmitQASM: s.cold},
	})
	if err != nil {
		panic(err) // a fixed struct of numbers and strings always encodes
	}
	return b
}

// start boots a fresh server as cmd/qaoad does (warm-up compile, then
// ready), serves the hot working set once, then the warm-up requests.
func (s *qaoadSession) start(ctx context.Context, obs *obsv.Collector) error {
	if s.srv != nil {
		s.srv.Close()
	}
	s.obs = obs
	s.srv = serve.New(serve.Config{Obs: obs})
	if err := warmUp(ctx); err != nil {
		return fmt.Errorf("warm-up compile: %w", err)
	}
	s.srv.MarkReady()
	for _, r := range s.base {
		if _, err := s.serve(r, false); err != nil {
			return fmt.Errorf("working set: %w", err)
		}
	}
	for _, r := range s.warmup {
		if _, err := s.serve(r, r.class != classCold); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// warmUp is cmd/qaoad's readiness warm-up: a 4-node ring compiled on
// melbourne through the resilient ladder.
func warmUp(ctx context.Context) error {
	spec := compile.Spec{N: 4, Levels: []compile.LevelSpec{{
		ZZ: []compile.ZZTerm{
			{U: 0, V: 1, Theta: -0.8}, {U: 1, V: 2, Theta: -0.8},
			{U: 2, V: 3, Theta: -0.8}, {U: 0, V: 3, Theta: -0.8},
		},
		MixerBeta: 0.4,
	}}}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	_, err := compile.CompileSpecResilient(ctx, spec, device.Melbourne15(), compile.PresetIC, compile.FallbackOptions{Seed: 1})
	return err
}

// serve sends one untimed request and checks it.
func (s *qaoadSession) serve(r request, cached bool) (*serve.CompileResponse, error) {
	w := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(r.body)))
	return s.decode(w, r, cached)
}

// decode checks one response against what its request class implies.
func (s *qaoadSession) decode(w *httptest.ResponseRecorder, r request, cached bool) (*serve.CompileResponse, error) {
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.Cached != cached {
		return nil, fmt.Errorf("%s request answered cached=%t", r.class, resp.Cached)
	}
	if resp.Degraded || resp.PresetEffective != resp.PresetRequested {
		return nil, fmt.Errorf("%s compile degraded to %s: %s", resp.PresetRequested, resp.PresetEffective, resp.DegradedReason)
	}
	if err := s.checkCircuit(&resp, r); err != nil {
		return nil, err
	}
	return &resp, nil
}

// checkCircuit checks a response's circuits against the request alone,
// once per distinct request key; repeats must be byte-identical.
func (s *qaoadSession) checkCircuit(resp *serve.CompileResponse, r request) error {
	sum := sha256.Sum256([]byte(resp.Circuit))
	if prev, ok := s.byKey[resp.CacheKey]; ok {
		if prev != sum {
			return fmt.Errorf("identical requests got different circuits (key %.12s)", resp.CacheKey)
		}
		return nil
	}
	m := s.sts[r.st].g.M()
	if err := checkCircuitText(resp.Circuit, s.dev, m, 1, resp.Swaps); err != nil {
		return err
	}
	if s.cold {
		native, err := qasm.Import(resp.QASM)
		if err != nil {
			return fmt.Errorf("importing response QASM: %w", err)
		}
		if err := checkNative(native, s.dev, m, 1, resp.Swaps); err != nil {
			return err
		}
	}
	s.byKey[resp.CacheKey] = sum
	return nil
}

func (s *qaoadSession) passLen() int { return len(s.reqs) }

// beginPass boots a fresh server for every pass after the first, so each
// pass meets the same cache state: new angles stay new, new structures
// stay cold. A traced pass gives the server the traced collector.
func (s *qaoadSession) beginPass(ctx context.Context, pass int, col *obsv.Collector) error {
	if pass == 0 && col == nil {
		return nil
	}
	if col == nil {
		col = obsv.New()
	}
	return s.start(ctx, col)
}

func (s *qaoadSession) step(_ context.Context, pass, i int, rec *recorder) {
	r := s.reqs[i]
	hits, skels, compiles := s.counters()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(r.body))
	w := httptest.NewRecorder()
	h := s.srv.Handler()
	t0 := rec.begin()
	h.ServeHTTP(w, req)
	d := rec.end(t0)
	rec.class(r.class, d)
	if rec.traced() {
		rec.respBytes += int64(w.Body.Len())
	}
	resp, err := s.decode(w, r, r.class != classCold)
	if err != nil {
		rec.fail("%s request %d: %v", r.class, i, err)
		return
	}
	h2, s2, c2 := s.counters()
	want := [3]int64{}
	switch r.class {
	case classFull:
		want[0] = 1
	case classSkel:
		want[1] = 1
	case classCold:
		want[2] = 1
	}
	if got := [3]int64{h2 - hits, s2 - skels, c2 - compiles}; got != want {
		rec.fail("%s request %d moved cache_hits/skeleton_hits/compiles by %v, want %v", r.class, i, got, want)
	}
	if pass == 0 {
		s.first[i] = served{depth: resp.Depth, swaps: resp.Swaps, gates: resp.Gates}
	}
}

func (s *qaoadSession) counters() (hits, skels, compiles int64) {
	return s.obs.Counter(obsv.CntServeCacheHits), s.obs.Counter(obsv.CntServeSkeletonHits), s.obs.Counter(obsv.CntServeCompiles)
}

// quality averages depth and swaps over pass 0's responses. The qaoad
// workloads simulate nothing, so approx_ratio and arg_pct come from the
// leading qaoadProbe requests: the exact p=1 ratio r0 at the requested
// angles, and the Fig. 11(b) gap predicted for the served circuit under a
// global depolarizing model, where a circuit of fidelity F yields
// F·r0 + (1−F)·r_rand and r_rand is a uniformly random cut's ratio.
func (s *qaoadSession) quality() quality {
	q := quality{}
	for _, f := range s.first {
		q.depthMean += float64(f.depth)
		q.swapsMean += float64(f.swaps)
	}
	q.depthMean /= float64(len(s.first))
	q.swapsMean /= float64(len(s.first))
	for i, r := range s.reqs[:qaoadProbe] {
		g := s.sts[r.st].g
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			continue
		}
		r0 := qaoa.ExpectationP1Analytic(g, r.gamma, r.beta) / float64(prob.MaxCut)
		cx := 2*g.M() + 3*s.first[i].swaps
		f := math.Pow(1-cxError, float64(cx)) * math.Pow(1-oneQError, float64(s.first[i].gates-cx))
		rRand := float64(g.M()) / 2 / float64(prob.MaxCut)
		q.approxRatio += r0 / qaoadProbe
		q.argPct += qaoa.ARG(r0, f*r0+(1-f)*rRand) / qaoadProbe
	}
	return q
}

func (s *qaoadSession) tree() []node {
	return []node{
		{"op", []string{obsv.SpanServeRequest}},
		{obsv.SpanServeRequest, []string{obsv.SpanServeCompile}},
		{obsv.SpanServeCompile, []string{obsv.SpanCompileTotal}},
		{obsv.SpanCompileTotal, []string{obsv.SpanCompileMap, obsv.SpanCompileOrder, obsv.SpanCompileRoute}},
	}
}

func (s *qaoadSession) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}
