package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/compile"
	"repro/internal/obsv"
)

// discardWriter is a ResponseWriter that keeps only the byte count, so the
// benchmarks measure the server rather than a recorder.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// benchServer boots a ready server with a collector, as cmd/qaoad runs.
func benchServer(tb testing.TB) *Server {
	s := New(Config{Obs: obsv.New()})
	tb.Cleanup(s.Close)
	s.MarkReady()
	return s
}

func benchBody(tb testing.TB, gamma float64) []byte {
	body, err := json.Marshal(angleRequest("tokyo", 12, 3, "IC", []float64{gamma}, []float64{0.4}))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveDiscard sends one compile request through the handler.
func serveDiscard(s *Server, req *http.Request, w *discardWriter, body []byte) {
	req.Body = io.NopCloser(bytes.NewReader(body))
	s.Handler().ServeHTTP(w, req)
}

// The request decode alone, on a body shaped like qaoad-hot's.
func BenchmarkServeDecode(b *testing.B) {
	body := hotRequestBody(b)
	r := bytes.NewReader(body)
	var req CompileRequest
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		req = CompileRequest{}
		if err := decodeCompileRequest(r, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// A full-key hit: decode, lookup, and the response framed around the
// outcome's rendered circuit.
func BenchmarkServeFullHit(b *testing.B) {
	s := benchServer(b)
	body := benchBody(b, 0.8)
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", nil)
	w := &discardWriter{h: http.Header{}}
	serveDiscard(s, req, w, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveDiscard(s, req, w, body)
	}
}

// A skeleton hit: every request brings new angles, so each binds the
// cached skeleton and renders a new outcome.
func BenchmarkServeSkelHit(b *testing.B) {
	s := benchServer(b)
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", nil)
	w := &discardWriter{h: http.Header{}}
	serveDiscard(s, req, w, benchBody(b, 0.8))
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = benchBody(b, 0.5+float64(i)*1e-9)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveDiscard(s, req, w, bodies[i])
	}
}

// The rendering a cold request pays after its compile: a concrete result
// frozen into an outcome (circuit text and QASM export), framed and
// written.
func BenchmarkServeColdRender(b *testing.B) {
	s := benchServer(b)
	creq := angleRequest("tokyo", 12, 3, "IC", []float64{0.8}, []float64{0.4})
	creq.Config.EmitQASM = true
	p, err := s.parseRequest(&creq)
	if err != nil {
		b.Fatal(err)
	}
	res, err := compile.CompileSpecResilient(context.Background(), p.spec(), p.dev, p.preset, compile.FallbackOptions{Seed: p.seed})
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	rs := new(reqState)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := buildOutcome(p, res, p.preset, false, nil, nil)
		if err := writeCompileResponse(w, rs, p, out, false); err != nil {
			b.Fatal(err)
		}
	}
}

// A full-key hit's render-and-write path frames the response in a pooled
// buffer: beyond the header map's value slice it allocates nothing.
func TestFullHitRenderWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	s := benchServer(t)
	req := angleRequest("tokyo", 12, 3, "IC", []float64{0.8}, []float64{0.4})
	serveBody(t, s, req)
	p, err := s.parseRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := s.cache.get(p.key)
	if !ok {
		t.Fatal("outcome not cached")
	}
	w := &discardWriter{h: http.Header{}}
	rs := new(reqState)
	allocs := testing.AllocsPerRun(200, func() {
		if err := writeCompileResponse(w, rs, p, out, true); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1
	if allocs > ceiling {
		t.Errorf("full-key hit render and write: %.1f allocs, ceiling %d", allocs, ceiling)
	}
}
