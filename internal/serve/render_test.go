package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qasm"
)

// spec is the request's concrete compile.Spec: the canonical terms at each
// level's gamma, plus the level's mixer angle — what a direct compile of
// the request, the oracle for every skeleton bind, compiles.
func (p *parsedRequest) spec() compile.Spec {
	s := compile.Spec{N: p.paramSpec.N, Levels: make([]compile.LevelSpec, p.paramSpec.P)}
	for l := range s.Levels {
		terms := make([]compile.ZZTerm, len(p.paramSpec.Terms))
		for i, t := range p.paramSpec.Terms {
			terms[i] = compile.ZZTerm{U: t.U, V: t.V, Theta: -p.gamma[l] * t.Weight}
		}
		s.Levels[l] = compile.LevelSpec{ZZ: terms, MixerBeta: p.beta[l]}
	}
	return s
}

// cacheKeysOracle is the fmt.Fprintf key hash that cacheKeys replaced,
// over the parsed request's canonical fields. The skeleton key is the full
// key's lines without the angle lines, behind a marker line.
func cacheKeysOracle(p *parsedRequest) (key, skelKey string) {
	levels := len(p.gamma)
	header := fmt.Sprintf("dev=%s\npreset=%s\nseed=%d\npacking=%d\noptimize=%t\nn=%d\np=%d\n",
		p.deviceID, p.preset, p.seed, p.packing, p.optimize, p.paramSpec.N, levels)
	h := sha256.New()
	fmt.Fprint(h, header)
	for l := 0; l < levels; l++ {
		fmt.Fprintf(h, "level=%d gamma=%g beta=%g\n", l, p.gamma[l], p.beta[l])
	}
	for _, e := range p.paramSpec.Terms {
		fmt.Fprintf(h, "%d %d %g\n", e.U, e.V, e.Weight)
	}
	key = hex.EncodeToString(h.Sum(nil))
	h = sha256.New()
	fmt.Fprint(h, "skeleton\n"+header)
	for _, e := range p.paramSpec.Terms {
		fmt.Fprintf(h, "%d %d %g\n", e.U, e.V, e.Weight)
	}
	skelKey = hex.EncodeToString(h.Sum(nil))
	return key, skelKey
}

// keyValues are the floats where %g and strconv are easiest to tell apart:
// signed zero, the exponent switches at 1e-4 and 1e21, and long mantissas.
var keyValues = []float64{
	math.Copysign(0, -1), 1e21, -1e21, 1e20, 999999999999999999999.0, 1e-5, 1e-4, 9.9999e-5,
	0.1 + 0.2, 1.0 / 3, -2.5, 123456789.123456789, 5e-324, math.MaxFloat64,
}

func randomKeyFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return keyValues[rng.Intn(len(keyValues))]
	}
	return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(30)-15))
}

// randomCompileRequest draws a valid request over n ≤ 12 qubits: named or
// inline device, weights or none, p ∈ {1,2,3} with or without explicit
// angles, optimize, packing and seed.
func randomCompileRequest(rng *rand.Rand, inline json.RawMessage) CompileRequest {
	n := 2 + rng.Intn(11)
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				e := [2]int{u, v}
				if rng.Intn(2) == 0 {
					e = [2]int{v, u}
				}
				edges = append(edges, e)
			}
		}
	}
	if len(edges) == 0 {
		edges = [][2]int{{0, 1}}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	req := CompileRequest{Circuit: CircuitDoc{N: n, Edges: edges}}
	if rng.Intn(2) == 0 {
		req.Device = inline
	} else {
		req.DeviceName = []string{"tokyo", "melbourne", "falcon27"}[rng.Intn(3)]
	}
	if rng.Intn(2) == 0 {
		req.Circuit.Weights = make([]float64, len(edges))
		for i := range req.Circuit.Weights {
			if rng.Intn(4) > 0 {
				req.Circuit.Weights[i] = randomKeyFloat(rng)
			}
		}
	}
	cfg := &req.Config
	cfg.Policy = []string{"", "IC", "ip", "QAIM", "NAIVE", "VIC"}[rng.Intn(6)]
	cfg.P = 1 + rng.Intn(3)
	if rng.Intn(4) > 0 {
		for l := 0; l < cfg.P; l++ {
			cfg.Gamma = append(cfg.Gamma, randomKeyFloat(rng))
			cfg.Beta = append(cfg.Beta, randomKeyFloat(rng))
		}
	}
	cfg.Seed = rng.Int63n(1<<40) - 1<<39
	cfg.PackingLimit = rng.Intn(4)
	cfg.Optimize = rng.Intn(3) == 0
	cfg.EmitQASM = rng.Intn(2) == 0
	return req
}

func TestCacheKeysMatchFprintfOracle(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	inline, err := device.Grid(3, 4).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s.ReloadCalibration("melbourne", device.Melbourne15().Calib) // epoch 1 on one name
	rng := rand.New(rand.NewSource(5))
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		req := randomCompileRequest(rng, inline)
		p, err := s.parseRequest(&req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.DeviceName != "" {
			_, epoch, _ := s.devices.get(req.DeviceName)
			if want := fmt.Sprintf("%s@%d", req.DeviceName, epoch); p.deviceID != want {
				t.Fatalf("request %d: deviceID %q, want %q", i, p.deviceID, want)
			}
		}
		key, skelKey := cacheKeysOracle(p)
		if p.key != key || p.skelKey != skelKey {
			t.Fatalf("request %d (%+v): keys (%s, %s), oracle (%s, %s)", i, req.Config, p.key, p.skelKey, key, skelKey)
		}
		seen[p.key] = true
	}
	if len(seen) < 2900 {
		t.Errorf("only %d distinct keys over 3000 random requests", len(seen))
	}
}

// responseOracle is the json.Encoder framing writeCompileResponse
// replaced: the old buildResponse over out's metadata, with the circuit and
// QASM text passed in raw.
func responseOracle(t *testing.T, key string, cached bool, out *outcome, circuitText, qasmText string) []byte {
	t.Helper()
	resp := CompileResponse{
		Status:          "ok",
		CacheKey:        key,
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
		Circuit:         circuitText,
		QASM:            qasmText,
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// serveBody sends one compile request through the handler and returns
// the response body.
func serveBody(t *testing.T, s *Server, req CompileRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	return w.Body.Bytes()
}

// Every success response must be byte-identical to what json.Encoder with
// SetIndent("", "  ") writes for the same CompileResponse. The circuit and
// QASM text of the oracle come from an independent direct compile of the
// request, rendered by Circuit.String and qasm.Export.
func TestCompileResponseBytesMatchEncoder(t *testing.T) {
	s := New(Config{Obs: obsv.New()})
	defer s.Close()
	s.MarkReady()

	withQASM := func(r CompileRequest) CompileRequest { r.Config.EmitQASM = true; return r }
	optimize := func(r CompileRequest) CompileRequest { r.Config.Optimize = true; return r }
	base := angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2})
	other := angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{0.1})
	third := angleRequest("tokyo", 6, 3, "IC", []float64{0.3}, []float64{0.6})
	// β = π makes every mixer a 2π rotation, which peephole drops.
	piMixer := angleRequest("tokyo", 6, 3, "IC", []float64{0.9}, []float64{math.Pi})
	// VIC needs a calibration tokyo lacks: the ladder falls back to IC and
	// the response is degraded with a reason and failed attempts.
	degraded := angleRequest("tokyo", 7, 5, "VIC", []float64{0.4, 0.2}, []float64{0.3, 0.1})
	cases := []struct {
		name   string
		req    CompileRequest
		cached bool
	}{
		{"uncached skeleton flight", base, false},
		{"full-key hit", base, true},
		{"full-key hit asking for QASM its bind did not render", withQASM(base), true},
		{"skeleton hit with QASM", withQASM(other), true},
		{"full-key hit of a QASM-rendered bind, without QASM", other, true},
		{"skeleton hit without QASM", third, true},
		{"uncached optimize", optimize(base), false},
		{"cached optimize with QASM", withQASM(optimize(base)), true},
		{"optimize skeleton hit without QASM", optimize(piMixer), true},
		{"optimize full-key hit asking for QASM its bind did not render", withQASM(optimize(piMixer)), true},
		{"uncached degraded", withQASM(degraded), false},
		{"cached degraded", degraded, true},
	}
	for _, tc := range cases {
		got := serveBody(t, s, tc.req)
		p, err := s.parseRequest(&tc.req)
		if err != nil {
			t.Fatal(err)
		}
		out, ok := s.cache.get(p.key)
		if !ok {
			t.Fatalf("%s: no cached outcome", tc.name)
		}
		res, err := compile.CompileSpecResilient(context.Background(), p.spec(), p.dev, p.preset,
			compile.FallbackOptions{Seed: p.seed, PackingLimit: p.packing, Optimize: p.optimize, Retries: 1})
		if err != nil {
			t.Fatal(err)
		}
		qasmText := ""
		if p.emitQASM {
			qasmText = qasm.Export(res.Native)
		}
		if out.swaps != res.SwapCount || out.depth != res.Depth || out.gates != res.GateCount {
			t.Errorf("%s: metrics swaps=%d depth=%d gates=%d, direct compile %d/%d/%d",
				tc.name, out.swaps, out.depth, out.gates, res.SwapCount, res.Depth, res.GateCount)
		}
		want := responseOracle(t, p.key, tc.cached, out, res.Circuit.String(), qasmText)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response differs from the encoder oracle\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
		if strings.HasPrefix(tc.name, "uncached degraded") && (!out.degraded || out.degradedWhy == "" || out.attempts == 0) {
			t.Errorf("%s: degraded=%t reason=%q attempts=%d; the case does not exercise the degraded fields",
				tc.name, out.degraded, out.degradedWhy, out.attempts)
		}
	}
	// The lazy QASM cases really were lazy: the outcomes of the first
	// requests without emit_qasm hold no export.
	for _, req := range []CompileRequest{base, optimize(piMixer)} {
		p, _ := s.parseRequest(&req)
		if out, _ := s.cache.get(p.key); out.qasmJSON != "" || out.skel == nil {
			t.Errorf("optimize=%t: a bind for a request without emit_qasm rendered its QASM eagerly", p.optimize)
		}
	}
	// The optimize cases exercise peephole: their binds lost gates.
	pm := optimize(piMixer)
	p, _ := s.parseRequest(&pm)
	plain, err := compile.CompileSpecResilient(context.Background(), p.spec(), p.dev, p.preset,
		compile.FallbackOptions{Seed: p.seed, PackingLimit: p.packing, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := s.cache.get(p.key); out.gates >= plain.GateCount {
		t.Errorf("peephole left %d of %d native gates; the optimize cases do not exercise it", out.gates, plain.GateCount)
	}
}

// randomText draws a string over the characters a JSON escaper must treat
// specially, plus plain ASCII and multi-byte runes.
func randomText(rng *rand.Rand) string {
	pieces := []string{"a", "Z", " ", "q[3];\n", "\"", "\\", "<", ">", "&", "\t", "\r", "\b", "\f",
		"\x00", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xe2\x80", "€", "😀"}
	var b strings.Builder
	for i := rng.Intn(12); i > 0; i-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// The framing's omitempty rules, layouts and metadata escaping, over
// synthetic outcomes the server never builds: nil and empty layouts, zero
// and non-zero optional fields, and strings that need escaping.
func TestAppendCompileResponseMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layout := func() []int {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		xs := make([]int, 1+rng.Intn(5))
		for i := range xs {
			xs[i] = rng.Intn(200) - 50
		}
		return xs
	}
	for i := 0; i < 2000; i++ {
		circuitText, qasmText := randomText(rng), ""
		if rng.Intn(2) == 0 {
			qasmText = randomText(rng)
		}
		out := &outcome{
			circuitJSON: string(appendJSONString(nil, circuitText)),
			swaps:       rng.Intn(100), depth: rng.Intn(100), gates: rng.Intn(1000),
			initial: layout(), final: layout(),
			deviceName: randomText(rng), requested: randomText(rng), effective: randomText(rng),
			degraded: rng.Intn(2) == 0, attempts: rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			out.degradedWhy = randomText(rng)
		}
		qasmLit := ""
		if qasmText != "" {
			qasmLit = string(appendJSONString(nil, qasmText))
		}
		key, cached := randomText(rng), rng.Intn(2) == 0
		got := appendCompileResponse(nil, key, cached, out, qasmLit)
		if want := responseOracle(t, key, cached, out, circuitText, qasmText); !bytes.Equal(got, want) {
			t.Fatalf("case %d: framing differs from the encoder oracle\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, seed := range []string{
		"", "plain", "<script>&amp;</script>", "a\"b\\c", "\x00\x01\x08\x0c\x1f\x7f",
		"line\nfeed\ttab\rreturn", "\xff\xfe", "\xe2\x80", "trunc\xf0\x9f\x98", "\u2028\u2029",
		"é€😀", "qreg q[2];\nmeasure q[0] -> c[0];\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: escaped %s, encoding/json %s", s, got, want)
		}
		if got := appendJSONString([]byte("x"), []byte(s)); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("bytes %q: escaped %s, encoding/json %s", s, got[1:], want)
		}
		if !utf8.ValidString(string(want)) {
			t.Fatalf("escaped %q is not valid UTF-8", want)
		}
	})
}

// appendCompileResponse writes CompileResponse's fields by hand, so a
// field added to the type must be added to the framing too: this pins the
// type's JSON fields to the ones the framing writes, in order.
func TestCompileResponseFieldsAreFramed(t *testing.T) {
	framed := []string{"status", "cache_key", "cached", "device", "preset_requested", "preset_effective",
		"degraded,omitempty", "degraded_reason,omitempty", "attempts,omitempty", "swaps", "depth", "gates",
		"initial_layout", "final_layout", "circuit", "qasm,omitempty"}
	typ := reflect.TypeOf(CompileResponse{})
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		tags = append(tags, typ.Field(i).Tag.Get("json"))
	}
	if !reflect.DeepEqual(tags, framed) {
		t.Errorf("CompileResponse JSON fields %q, framing writes %q", tags, framed)
	}
}
