package serve

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/compile"
	"repro/internal/qaoa"
	"repro/internal/qasm"
)

// The success path renders every artifact once. buildOutcome renders the
// circuit text (and the QASM export, when the request asked for it or the
// outcome is a concrete compile) straight into pooled scratch and stores
// each as a ready JSON string literal; writeCompileResponse then frames
// the CompileResponse around those literals by hand. The bytes are those
// json.Encoder with SetIndent("", "  ") writes for the same response —
// field order, omitempty rules, HTML escaping and the trailing newline —
// which the response-bytes oracle test holds it to.

// renderBuf is pooled scratch for one rendering: the raw text, and the
// escaped literal or framed response built from it.
type renderBuf struct {
	text, out []byte
}

var renderBufs = sync.Pool{New: func() any { return new(renderBuf) }}

// literal returns the text rendered in rb.text as a JSON string literal,
// escaped through rb.out into a string of its own.
func (rb *renderBuf) literal() string {
	rb.out = appendJSONString(rb.out[:0], rb.text)
	return string(rb.out)
}

// writeCompileResponse writes the 200 response for out: the JSON document
// of a CompileResponse with this request's cache key and cached flag, and
// the QASM export when the request asked for it. An outcome bound without
// its QASM gets it here, by rebinding its skeleton into a pooled buffer;
// the outcome itself is never modified. The clock reads split the work
// into the request's bind, render and write phases.
func writeCompileResponse(w http.ResponseWriter, rs *reqState, p *parsedRequest, out *outcome, cached bool) error {
	rb := renderBufs.Get().(*renderBuf)
	defer renderBufs.Put(rb)

	var qasmLit string
	if p.emitQASM {
		qasmLit = out.qasmJSON
		if qasmLit == "" {
			buf := bindBufs.Get().(*compile.BindBuffer)
			res, err := out.skel.skel.BindTo(buf, qaoa.Params{Gamma: out.gamma, Beta: out.beta})
			if err != nil {
				bindBufs.Put(buf)
				return err
			}
			rs.rec.BindMS += rs.lap()
			//lint:allow poolsafe: qasm.Append renders res.Native into rb's own bytes; nothing derived from buf outlives the Put below
			rb.text = qasm.Append(rb.text[:0], res.Native)
			bindBufs.Put(buf)
			qasmLit = rb.literal()
		}
	}

	rb.out = appendCompileResponse(rb.out[:0], p.key, cached, out, qasmLit)
	rs.rec.RenderMS += rs.lap()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(rb.out)
	rs.rec.WriteMS = rs.lap()
	return nil
}

// appendCompileResponse appends the indented JSON document of the
// CompileResponse for out, trailing newline included.
func appendCompileResponse(b []byte, key string, cached bool, out *outcome, qasmLit string) []byte {
	b = append(b, "{\n  \"status\": \"ok\",\n  \"cache_key\": "...)
	b = appendJSONString(b, key)
	b = append(b, ",\n  \"cached\": "...)
	b = strconv.AppendBool(b, cached)
	b = append(b, ",\n  \"device\": "...)
	b = appendJSONString(b, out.deviceName)
	b = append(b, ",\n  \"preset_requested\": "...)
	b = appendJSONString(b, out.requested)
	b = append(b, ",\n  \"preset_effective\": "...)
	b = appendJSONString(b, out.effective)
	if out.degraded {
		b = append(b, ",\n  \"degraded\": true"...)
	}
	if out.degradedWhy != "" {
		b = append(b, ",\n  \"degraded_reason\": "...)
		b = appendJSONString(b, out.degradedWhy)
	}
	if out.attempts != 0 {
		b = append(b, ",\n  \"attempts\": "...)
		b = strconv.AppendInt(b, int64(out.attempts), 10)
	}
	b = append(b, ",\n  \"swaps\": "...)
	b = strconv.AppendInt(b, int64(out.swaps), 10)
	b = append(b, ",\n  \"depth\": "...)
	b = strconv.AppendInt(b, int64(out.depth), 10)
	b = append(b, ",\n  \"gates\": "...)
	b = strconv.AppendInt(b, int64(out.gates), 10)
	b = append(b, ",\n  \"initial_layout\": "...)
	b = appendIntArray(b, out.initial)
	b = append(b, ",\n  \"final_layout\": "...)
	b = appendIntArray(b, out.final)
	b = append(b, ",\n  \"circuit\": "...)
	b = append(b, out.circuitJSON...)
	if qasmLit != "" {
		b = append(b, ",\n  \"qasm\": "...)
		b = append(b, qasmLit...)
	}
	return append(b, "\n}\n"...)
}

// appendIntArray appends a top-level field's []int value the way the
// indented encoder lays it out: null, [], or one element per line.
func appendIntArray(b []byte, xs []int) []byte {
	switch {
	case xs == nil:
		return append(b, "null"...)
	case len(xs) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, "\n  ]"...)
}

// appendJSONString appends src as a JSON string literal, escaped exactly
// as encoding/json escapes strings with HTML escaping on: quote, backslash
// and control characters, <, > and &, U+2028 and U+2029, and each byte of
// invalid UTF-8 replaced by \ufffd.
func appendJSONString[S []byte | string](dst []byte, src S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := decodeRune(src[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

func decodeRune[S []byte | string](s S) (rune, int) {
	if len(s) > utf8.UTFMax {
		s = s[:utf8.UTFMax]
	}
	return utf8.DecodeRuneInString(string(s))
}
