package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/device"
	"repro/internal/obsv"
)

// hotRequestBody is a request shaped like the qaoad-hot benchmark's: a
// named device, 14 nodes and 27 edges, one level of full-precision angles
// and a 31-bit seed — about 325 bytes.
func hotRequestBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(9))
	const n, m = 14, 27
	seen := map[[2]int]bool{}
	var edges [][2]int
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u < v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
	}
	req := CompileRequest{
		DeviceName: "tokyo",
		Circuit:    CircuitDoc{N: n, Edges: edges},
		Config: ConfigDoc{Policy: "QAIM", P: 1, Gamma: []float64{0.8 * (0.8 + 0.4*rng.Float64())},
			Beta: []float64{0.4 * (0.8 + 0.4*rng.Float64())}, Seed: 1 + rng.Int63n(1<<31)},
	}
	return mustMarshal(tb, req)
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// requestBodies returns the request bodies the serve tests marshal, split
// into those in the shape the fast path decodes and those with an inline
// device, which encoding/json decodes: no workload sends one, so the fast
// path leaves the device document to the fallback. (The empty
// CompileRequest the tests also send marshals its nil edges as null: it
// is in edgeBodies.)
func requestBodies(tb testing.TB) (canonical, fallback [][]byte) {
	inline, err := device.Melbourne15().MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := device.Grid(3, 4).MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	inlineRing := ringRequest("", 6, 3, "IC")
	inlineRing.Device = inline
	optimize := angleRequest("tokyo", 6, 3, "IC", []float64{0.5}, []float64{0.2})
	optimize.Config.Optimize, optimize.Config.EmitQASM = true, true
	reqs := []CompileRequest{
		ringRequest("tokyo", 4, 1, "IC"),
		ringRequest("melbourne", 6, 3, "IC"),
		ringRequest("tokyo", 4, 9, "NAIVE"),
		angleRequest("tokyo", 12, 3, "IC", []float64{0.8}, []float64{0.4}),
		angleRequest("melbourne", 8, 7, "IC", []float64{0.8, 0.4}, []float64{0.4, 0.2}),
		angleRequest("tokyo", 7, 5, "VIC", []float64{0.4, 0.2}, []float64{0.3, 0.1}),
		inlineRing,
		optimize,
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		reqs = append(reqs, randomCompileRequest(rng, grid))
	}
	canonical = [][]byte{hotRequestBody(tb)}
	for _, r := range reqs {
		if r.Device != nil {
			fallback = append(fallback, mustMarshal(tb, r))
		} else {
			canonical = append(canonical, mustMarshal(tb, r))
		}
	}
	return canonical, fallback
}

// allBodies is requestBodies' two sets together.
func allBodies(tb testing.TB) [][]byte {
	canonical, fallback := requestBodies(tb)
	return append(canonical, fallback...)
}

// edgeBodies are documents at the edges of the fast path's shape, each of
// which either it or encoding/json must decide exactly as encoding/json.
var edgeBodies = []string{
	``, ` `, `null`, ` null `, `{}`, `[]`, `"x"`, `1`, `{`, `{"circuit":`, `}`,
	`{"device_name":"tokyo"}trailing`, `{"device_name":"tokyo"} {"device_name":"x"}`,
	`{"device_name":"tokyo",}`, `{,"device_name":"tokyo"}`, `{"device_name" "tokyo"}`,
	`{"device_name":null}`, `{"circuit":null}`, `{"config":{"gamma":null}}`,
	`{"Device_Name":"tokyo"}`, `{"DEVICE_NAME":"tokyo","circuit":{"N":3}}`, `{"unknown":1,"device_name":"t"}`,
	`{"device_name":"to\"kyo"}`, `{"device_name":"to\u006byo"}`, `{"device_name":"tok\/yo"}`,
	`{"device_name":"tökyo"}`, "{\"device_name\":\"to\x01kyo\"}", "{\"device_name\":\"\xff\"}",
	`{"circuit":{"n":01}}`, `{"circuit":{"n":1.0}}`, `{"circuit":{"n":1e2}}`, `{"circuit":{"n":-0}}`,
	`{"circuit":{"n":-}}`, `{"circuit":{"n":--1}}`, `{"circuit":{"n":+1}}`, `{"circuit":{"n":"3"}}`,
	`{"circuit":{"n":9223372036854775807}}`, `{"circuit":{"n":9223372036854775808}}`,
	`{"circuit":{"n":123456789012345678}}`, `{"circuit":{"n":1234567890123456789}}`,
	`{"config":{"seed":-9223372036854775808}}`, `{"config":{"deadline_ms":00}}`,
	`{"circuit":{"edges":[[0,1,2]]}}`, `{"circuit":{"edges":[[0]]}}`, `{"circuit":{"edges":[[]]}}`,
	`{"circuit":{"edges":[]}}`, `{"circuit":{"edges":[[0,1,[2,3]]}}`, `{"circuit":{"edges":[[0,1}}`, `{"circuit":{"edges":[[0,1],]}}`, `{"circuit":{"edges":[[0,1.5]]}}`,
	`{"circuit":{"edges":[ [ 0 , 1 ] , [1,2] ]}}`, `{"circuit":{"edges":[[0,1]],"edges":[[2,3],[3,4]]}}`,
	`{"circuit":{"edges":[[0,1],[1,2]],"edges":[]}}`, `{"circuit":{"weights":[1,2],"weights":[3]}}`,
	`{"circuit":{"n":3},"circuit":{"edges":[[0,1]]}}`, `{"circuit":{"n":3,"edges":[[0,1]]},"circuit":{"n":4}}`,
	`{"device_name":"a","device_name":"b"}`, `{"config":{"p":1},"config":{"gamma":[0.5]}}`,
	`{"config":{"gamma":[]}}`, `{"config":{"gamma":[1e400]}}`, `{"config":{"gamma":[-1e-400]}}`,
	`{"config":{"gamma":[01.5]}}`, `{"config":{"gamma":[1.]}}`, `{"config":{"gamma":[.5]}}`,
	`{"config":{"gamma":[1e]}}`, `{"config":{"gamma":[1E+2, -0.0, 0e0, 2.5e-3]}}`,
	`{"config":{"optimize":true,"emit_qasm":false}}`, `{"config":{"optimize":1}}`, `{"config":{"optimize":tru}}`,
	`{"config":{"optimize":truex}}`, `{"config":{"policy":"IC","policy":"VIC"}}`,
	`{"device":{"name":"x"}}`, `{"device": { "name" : "x", "coupling" : [ [0, 1] ] } }`,
	`{"device":{"name":"x"},"device":{"name":"y"}}`, `{"device":null}`, `{"device":"tokyo"}`, `{"device":[1]}`,
	"\t\r\n {\"device_name\":\"tokyo\"}", "\xef\xbb\xbf{}", `{"circuit":{"n":0,"edges":null},"config":{}}`,
}

// checkDecode compares the handler's decode of b, read whole and read a
// byte at a time, with json.NewDecoder(...).Decode: equal results and
// equal error text.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	checkDecodeRead(t, b, bytes.NewReader(b))
	checkDecodeRead(t, b, iotest.OneByteReader(bytes.NewReader(b)))
}

// checkDecodeRead is checkDecode with the body read from r.
func checkDecodeRead(t *testing.T, b []byte, r io.Reader) {
	t.Helper()
	var got, want CompileRequest
	gotErr := decodeCompileRequest(r, &got)
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("body %q: error %q, encoding/json %q", b, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded\n%#v\nencoding/json\n%#v", b, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, b := range allBodies(t) {
		checkDecode(t, b)
		checkDecode(t, append(append([]byte(nil), b...), " trailing"...))
		for i := range b {
			checkDecodeRead(t, b[:i], bytes.NewReader(b[:i]))
		}
	}
	for _, s := range edgeBodies {
		checkDecode(t, []byte(s))
	}
}

// The canonical bodies must take the fast path, not just decode correctly
// through the fallback.
func TestDecodeFastPathTakesCanonicalBodies(t *testing.T) {
	canonical, _ := requestBodies(t)
	for _, b := range canonical {
		d := &requestDecoder{buf: b}
		var req CompileRequest
		if !d.fast(&req) {
			t.Errorf("body %s fell back to encoding/json", b)
		}
	}
}

// The decode reads no further than encoding/json would: not a byte once
// the first value is complete, however the body arrives.
func TestDecodeStopsAtFirstValue(t *testing.T) {
	for _, b := range allBodies(t) {
		for _, chunk := range []int{1, 7, len(b)} {
			r := &chunkReader{b: b, n: chunk}
			var req CompileRequest
			if err := decodeCompileRequest(r, &req); err != nil {
				t.Fatalf("body %s in %d-byte reads: %v", b, chunk, err)
			}
			if len(r.b) != 0 || r.overread {
				t.Fatalf("body %s in %d-byte reads: %d bytes left, read past the value %v", b, chunk, len(r.b), r.overread)
			}
		}
	}
}

// chunkReader yields b at most n bytes a read, then records a read past
// its end and fails it.
type chunkReader struct {
	b        []byte
	n        int
	overread bool
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		r.overread = true
		return 0, errors.New("read past the first value")
	}
	n := copy(p[:min(len(p), r.n)], r.b)
	r.b = r.b[n:]
	return n, nil
}

func FuzzDecodeCompileRequest(f *testing.F) {
	for _, b := range allBodies(f) {
		f.Add(b)
		f.Add(append(append([]byte(nil), b...), `{"x":1}`...))
		f.Add(b[:len(b)/2])
	}
	for _, s := range edgeBodies {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// The fast decode allocates one block per string or slice the decoded
// request holds, and the body reader the test hands it.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	body := hotRequestBody(t)
	var req CompileRequest
	allocs := testing.AllocsPerRun(200, func() {
		req = CompileRequest{}
		if err := decodeCompileRequest(bytes.NewReader(body), &req); err != nil {
			t.Fatal(err)
		}
	})
	// device_name, edges, policy, gamma, beta; plus the reader.
	const ceiling = 5 + 1
	if allocs > ceiling {
		t.Errorf("decoding the qaoad-hot fixture: %.1f allocs, ceiling %d", allocs, ceiling)
	}
}

// A body over maxBodyLen is decided by where its first value ends: one
// that completes under the cap is served (the rest is never needed), one
// that does not is a 400 naming the cap.
func TestOversizedBody(t *testing.T) {
	_, ts, col := newTestServer(t, Config{Obs: obsv.New()})
	req := mustMarshal(t, ringRequest("tokyo", 4, 1, "IC"))
	pad := strings.Repeat(" ", maxBodyLen)

	post := func(body string) (int, ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var fail ErrorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.Unmarshal(data, &fail); err != nil {
				t.Fatalf("status %d body %q: %v", resp.StatusCode, data, err)
			}
		}
		return resp.StatusCode, fail
	}

	if st, fail := post(string(req) + pad); st != http.StatusOK {
		t.Errorf("first value under the cap: status %d %+v, want 200", st, fail)
	}
	st, fail := post(string(req[:len(req)-1]) + pad + "}")
	if st != http.StatusBadRequest || fail.Kind != "bad_request" || !strings.Contains(fail.Error, "request body too large") {
		t.Errorf("first value past the cap: status %d %+v, want 400 bad_request naming the body size", st, fail)
	}
	if n := col.Counter(obsv.CntServeBadRequests); n != 1 {
		t.Errorf("bad-request counter %d, want 1", n)
	}
}

// A client that sends its request and holds the body open is served: the
// handler stops reading at the end of the first value. (net/http then
// drains the unread body before it writes the response header, so the
// client sees its 200 once it ends the body.)
func TestBodyHeldOpen(t *testing.T) {
	_, ts, col := newTestServer(t, Config{Obs: obsv.New()})
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", pr)
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	if _, err := pw.Write(mustMarshal(t, ringRequest("tokyo", 4, 1, "IC"))); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); col.Counter(obsv.CntServeOK) == 0; {
		if time.Now().After(deadline) {
			pw.Close()
			<-status
			t.Fatal("the handler did not finish with the request body held open")
		}
		time.Sleep(5 * time.Millisecond)
	}
	pw.Close()
	if st := <-status; st != http.StatusOK {
		t.Errorf("status %d, want 200", st)
	}
}

// The fast path matches keys by name, so a field added to the request
// documents must be added to it too, or every request that sets the field
// decodes through encoding/json: this pins the types' JSON keys to the
// ones the fast path knows. It matches all of them but "device", which it
// leaves to encoding/json on purpose (see requestBodies).
func TestDecodeFastPathKnowsEveryField(t *testing.T) {
	known := map[reflect.Type][]string{
		reflect.TypeOf(CompileRequest{}): {"device", "device_name", "circuit", "config"},
		reflect.TypeOf(CircuitDoc{}):     {"n", "edges", "weights"},
		reflect.TypeOf(ConfigDoc{}): {"policy", "p", "gamma", "beta", "packing_limit", "seed", "optimize",
			"deadline_ms", "emit_qasm"},
	}
	for typ, want := range known {
		var keys []string
		for i := 0; i < typ.NumField(); i++ {
			keys = append(keys, strings.TrimSuffix(typ.Field(i).Tag.Get("json"), ",omitempty"))
		}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%s JSON keys %q, fast path matches %q", typ, keys, want)
		}
	}
}
