// Package pool exercises the poolsafe analyzer against the repo's pooling
// idioms: direct sync.Pool use, hand-rolled get/put wrappers, derived
// views, and the borrow-vs-transfer ownership split.
package pool

import "sync"

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 64) }}

// getBuf and putBuf are the hand-rolled wrapper pair the classifier must
// discover: getBuf reaches Pool.Get and returns; putBuf Puts its param.
func getBuf() []byte       { return bufPool.Get().([]byte)[:0] }
func putBuf(b []byte)      { bufPool.Put(b[:0]) }
func recycle(b []byte)     { putBuf(b) } // a releaser through a releaser
func view(b []byte) []byte { return b[:len(b):len(b)] }

var sink []byte
var ch = make(chan []byte, 1)

type holder struct{ b []byte }

func useAfterPut() {
	b := getBuf()
	b = append(b, 1)
	putBuf(b)
	_ = b[0] // want `use of pooled value "b" after it was returned to the pool`
}

func doublePut() {
	b := getBuf()
	putBuf(b)
	putBuf(b) // want `pooled value "b" returned to the pool twice`
}

func deferDouble() {
	b := getBuf()
	defer putBuf(b)
	putBuf(b) // want `pooled value "b" returned to the pool twice: a deferred Put is also pending`
}

func aliasPut() {
	b := getBuf()
	c := b
	putBuf(b)
	putBuf(c) // want `pooled value "c" returned to the pool twice`
}

func wrappedRelease() {
	b := getBuf()
	recycle(b)
	_ = b[0] // want `use of pooled value "b" after it was returned to the pool`
}

func escapeReturn() []byte {
	b := getBuf()
	defer putBuf(b)
	return b // want `pooled value "b" escapes via return but is returned to the pool in this function`
}

func derivedEscape() []byte {
	b := getBuf()
	defer putBuf(b)
	v := view(b)
	return v // want `pooled value "v" escapes via return but is returned to the pool in this function`
}

func escapeSend() {
	b := getBuf()
	ch <- b // want `pooled value "b" escapes via channel send but is returned to the pool in this function`
	putBuf(b)
}

func escapeHeap(h *holder) {
	b := getBuf()
	h.b = b // want `pooled value "b" escapes via heap assignment but is returned to the pool in this function`
	putBuf(b)
}

// okBorrow acquires, works, releases: the canonical loan.
func okBorrow() int {
	b := getBuf()
	defer putBuf(b)
	b = append(b, 1)
	return len(b) // a scalar derived from the buffer is not the buffer
}

// okTransfer hands the value to the caller without ever Putting it:
// ownership transfer, the caller releases.
func okTransfer() []byte {
	return getBuf()
}

// okBranch releases on the failure path and transfers on success — the
// two exits are disjoint, so the success return is not an escape.
func okBranch(fail bool) []byte {
	b := getBuf()
	if fail {
		putBuf(b)
		return nil
	}
	return b
}

// okReacquire reuses the variable for a fresh value after the Put: the
// reassignment kills the released fact.
func okReacquire() {
	b := getBuf()
	putBuf(b)
	b = getBuf()
	_ = b[:0]
	putBuf(b)
}

// okSelfStore mutates the pooled object's own storage — not an escape.
func okSelfStore(h *holder) {
	b := getBuf()
	defer putBuf(b)
	b = append(b, 1)
	_ = h
}

// allowEscape documents a sanctioned borrow with the explicit escape.
func allowEscape() []byte {
	b := getBuf()
	defer putBuf(b)
	//lint:allow poolsafe: fixture-sanctioned — callee copies before the defer runs
	return b
}
