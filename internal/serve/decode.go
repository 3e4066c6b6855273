package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// requestDecoder holds the pooled buffers of one decode: the body bytes,
// and scratch arrays that collect an array's elements before the decoded
// request gets a slice of its own, sized exactly.
type requestDecoder struct {
	buf   []byte
	i     int // read offset into buf
	edges [][2]int
	nums  []float64
}

var requestDecoders = sync.Pool{New: func() any { return new(requestDecoder) }}

// maxPooledBody bounds, in bytes, each buffer of a decoder that goes back
// to requestDecoders: a decoder that grew past it for one large request is
// dropped, so a single 8 MiB body cannot pin its buffers for the life of
// the process.
const maxPooledBody = 64 << 10

// maxFastScan bounds, in bytes, what the fast path parses for one request
// over all its attempts. Each attempt parses the body read so far from the
// start, so a body sent a few bytes per read would otherwise cost time
// quadratic in its length; past the budget, encoding/json reads the rest.
const maxFastScan = 1 << 20

// decodeCompileRequest decodes the first JSON value of body into the zero
// *req, as json.NewDecoder(body).Decode(req) does: same result, same error,
// and nothing read once the value is complete. Documents in the canonical
// shape (see fast) are decoded without reflection, by a fast parse of the
// bytes read so far after each read. Every other document goes to
// encoding/json, handed the bytes read so far and then the rest of body, so
// error text, edge semantics and how far the body is read are its own.
func decodeCompileRequest(body io.Reader, req *CompileRequest) error {
	d := requestDecoders.Get().(*requestDecoder)
	defer func() {
		// An edge is 16 bytes, a float 8.
		if cap(d.buf) <= maxPooledBody && cap(d.edges) <= maxPooledBody/16 && cap(d.nums) <= maxPooledBody/8 {
			requestDecoders.Put(d)
		}
	}()
	if cap(d.buf) == 0 {
		d.buf = make([]byte, 0, 512)
	}
	d.buf = d.buf[:0]
	for scanned := 0; ; {
		if len(d.buf) == cap(d.buf) {
			d.buf = append(d.buf, 0)[:len(d.buf)]
		}
		n, err := body.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		scanned += len(d.buf)
		if d.fast(req) {
			return nil
		}
		*req = CompileRequest{}
		// A parse that stopped at the end of the bytes read has seen a
		// canonical prefix, valid JSON too, of a value not yet complete:
		// encoding/json would read on, so the loop does. One that stopped
		// short of the end met a byte outside the canonical shape (or a
		// true/false cut by the read), which encoding/json decides.
		if d.i < len(d.buf) || err != nil || scanned > maxFastScan {
			rest := body
			if err != nil {
				// The read error (io.EOF included) comes right after the
				// bytes read before it, as reading body itself would give.
				rest = errReader{err}
			}
			return json.NewDecoder(io.MultiReader(bytes.NewReader(d.buf), rest)).Decode(req)
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// fast decodes d.buf into req when its first value is in the canonical
// shape encoding/json itself produces for a CompileRequest: an object of
// the request's fields, keys matching a field name exactly, strings of
// printable ASCII without escapes, numbers that fit their field exactly,
// and edges of exactly two ints. It reports false, leaving req partly
// filled and d.i where it stopped, for anything else — an incomplete
// value, syntax errors, null, escapes, non-ASCII text, unknown or
// case-folded keys, type mismatches, ints with a fraction or exponent or
// out of range, and an inline device, which no workload sends — all of
// which encoding/json must decide. Duplicate keys resolve as encoding/
// json resolves them: the last value wins and duplicate objects merge.
func (d *requestDecoder) fast(req *CompileRequest) bool {
	d.i = 0
	d.ws()
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "device_name":
			return d.str(&req.DeviceName)
		case "circuit":
			return d.circuit(&req.Circuit)
		case "config":
			return d.config(&req.Config)
		}
		return false
	})
}

func (d *requestDecoder) circuit(c *CircuitDoc) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "n":
			return d.int(&c.N)
		case "edges":
			return d.edgeList(&c.Edges)
		case "weights":
			return d.floats(&c.Weights)
		}
		return false
	})
}

func (d *requestDecoder) config(c *ConfigDoc) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "policy":
			return d.str(&c.Policy)
		case "p":
			return d.int(&c.P)
		case "gamma":
			return d.floats(&c.Gamma)
		case "beta":
			return d.floats(&c.Beta)
		case "packing_limit":
			return d.int(&c.PackingLimit)
		case "seed":
			return d.int64(&c.Seed)
		case "optimize":
			return d.bool(&c.Optimize)
		case "deadline_ms":
			return d.int64(&c.DeadlineMS)
		case "emit_qasm":
			return d.bool(&c.EmitQASM)
		}
		return false
	})
}

// object reads an object, calling member with each key once the input is
// at the key's value; member reads the value, or reports false for a key
// or value outside the fast path's shape.
func (d *requestDecoder) object(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	for first := true; ; first = false {
		d.ws()
		if d.eat('}') {
			return true
		}
		if !first && !d.eat(',') {
			return false
		}
		d.ws()
		key, ok := d.plain()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		if !member(key) {
			return false
		}
	}
}

// array reads an array, calling elem at each element to read it.
func (d *requestDecoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	for first := true; ; first = false {
		d.ws()
		if d.eat(']') {
			return true
		}
		if !first && !d.eat(',') {
			return false
		}
		d.ws()
		if !elem() {
			return false
		}
	}
}

// ws skips JSON whitespace.
func (d *requestDecoder) ws() {
	for d.i < len(d.buf) {
		switch d.buf[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if the input continues with it.
func (d *requestDecoder) eat(c byte) bool {
	if d.i < len(d.buf) && d.buf[d.i] == c {
		d.i++
		return true
	}
	return false
}

// lit consumes s if the input continues with it.
func (d *requestDecoder) lit(s string) bool {
	if !bytes.HasPrefix(d.buf[d.i:], []byte(s)) {
		return false
	}
	d.i += len(s)
	return true
}

// plain reads a string literal of printable ASCII without escapes and
// returns its contents, aliasing d.buf.
func (d *requestDecoder) plain() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.buf); d.i++ {
		switch c := d.buf[d.i]; {
		case c == '"':
			d.i++
			return d.buf[start : d.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *requestDecoder) str(s *string) bool {
	b, ok := d.plain()
	if ok {
		*s = string(b)
	}
	return ok
}

func (d *requestDecoder) bool(v *bool) bool {
	switch {
	case d.lit("true"):
		*v = true
	case d.lit("false"):
		*v = false
	default:
		return false
	}
	return true
}

// maxIntDigits is the most digits an integer may have for int64 to hold
// it without an overflow check.
const maxIntDigits = 18

// int64 reads an integer literal: an optional '-', then 0 or a digit run
// without a leading zero. A fraction or exponent after it fails the
// caller's next structural check, so it never decodes here.
func (d *requestDecoder) int64(v *int64) bool {
	neg := d.eat('-')
	start := d.i
	var n int64
	for ; d.i < len(d.buf) && d.buf[d.i] >= '0' && d.buf[d.i] <= '9'; d.i++ {
		n = 10*n + int64(d.buf[d.i]-'0')
	}
	digits := d.i - start
	if digits == 0 || digits > maxIntDigits || (digits > 1 && d.buf[start] == '0') {
		return false
	}
	if neg {
		n = -n
	}
	*v = n
	return true
}

func (d *requestDecoder) int(v *int) bool {
	var n int64
	if !d.int64(&n) || int64(int(n)) != n {
		return false
	}
	*v = int(n)
	return true
}

// float reads a number literal in JSON's grammar and parses it as
// encoding/json does; a value out of float64 range fails.
func (d *requestDecoder) float() (float64, bool) {
	start := d.i
	d.eat('-')
	intStart := d.i
	if n := d.digits(); n == 0 || (n > 1 && d.buf[intStart] == '0') {
		return 0, false
	}
	if d.eat('.') && d.digits() == 0 {
		return 0, false
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(d.buf[start:d.i]), 64)
	return f, err == nil
}

// digits skips a run of decimal digits and returns its length.
func (d *requestDecoder) digits() int {
	start := d.i
	for d.i < len(d.buf) && d.buf[d.i] >= '0' && d.buf[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// floats reads an array of numbers into a slice of its own: a non-nil
// empty slice for [], as encoding/json makes.
func (d *requestDecoder) floats(v *[]float64) bool {
	d.nums = d.nums[:0]
	ok := d.array(func() bool {
		f, ok := d.float()
		d.nums = append(d.nums, f)
		return ok
	})
	if ok {
		*v = append(make([]float64, 0, len(d.nums)), d.nums...)
	}
	return ok
}

// edgeList reads an array of [u,v] pairs, each exactly two ints.
func (d *requestDecoder) edgeList(v *[][2]int) bool {
	d.edges = d.edges[:0]
	ok := d.array(func() bool {
		var e [2]int
		if !d.eat('[') {
			return false
		}
		d.ws()
		if !d.int(&e[0]) {
			return false
		}
		d.ws()
		if !d.eat(',') {
			return false
		}
		d.ws()
		if !d.int(&e[1]) {
			return false
		}
		d.ws()
		d.edges = append(d.edges, e)
		return d.eat(']')
	})
	if ok {
		*v = append(make([][2]int, 0, len(d.edges)), d.edges...)
	}
	return ok
}
