// Package sim exercises the hotpath analyzer against a miniature of the
// simulator's kernel layout.
package sim

import (
	"fmt"
	"math"

	"sim2"
)

// parallelFor is the fixture twin of the simulator's fan-out harness. No
// hot kernel may use it: the closure it takes is flagged like any other.
func parallelFor(n int, f func(lo, hi int)) { f(0, n) }

var amps = make([]float64, 1024)

// kernel is a compliant hot kernel: one serial loop.
//
//qaoa:hotpath
func kernel(scale float64) {
	for i := range amps {
		amps[i] *= scale
	}
}

// slowKernel collects the rejected constructs.
//
//qaoa:hotpath
func slowKernel(scale float64) {
	defer fmt.Println("done")        // want `defer in hotpath function slowKernel` `fmt.Println call in hotpath function slowKernel`
	f := func() { amps[0] *= scale } // want `closure allocated in hotpath function slowKernel`
	f()                              // want `call through a function value in hotpath function slowKernel`

	parallelFor(len(amps), func(lo, hi int) { // want `call to parallelFor in hotpath function slowKernel: callee is not annotated //qaoa:hotpath` `closure allocated in hotpath function slowKernel`
		g := func(i int) { amps[i] *= scale } // want `closure allocated in hotpath function slowKernel`
		for i := lo; i < hi; i++ {
			g(i) // want `call through a function value in hotpath function slowKernel`
		}
	})
	_ = interface{}(scale) // want `conversion to interface type interface\{\} in hotpath function slowKernel`
	logv(scale)            // want `call to logv boxes arguments into \.\.\.interface\{\} in hotpath function slowKernel`
}

// coldPath is unannotated: the same constructs pass unflagged.
func coldPath() {
	defer fmt.Println("done")
}

// escapedKernel keeps one fmt call on a guarded cold path behind the
// explicit escape.
//
//qaoa:hotpath
func escapedKernel(bad bool) {
	if bad {
		fmt.Println("corrupt register") //lint:allow hotpath: guarded cold error path
	}
}

func logv(args ...interface{}) {}

// expand is an annotated helper: calling it from another kernel is the
// proven transitive step.
//
//qaoa:hotpath
func expand(k int) int { return k << 1 }

// helper is a plain function: calling it from a kernel breaks the proof.
func helper(k int) int { return k + 1 }

// stringer is dynamic dispatch bait.
type stringer interface{ Len() int }

// growKernel exercises the v2 allocation checks: append growth, map
// writes, and the transitive callee proof.
//
//qaoa:hotpath
func growKernel(buf []float64, m map[int]int, s stringer) []float64 {
	buf = append(buf, 1)   // want `append in hotpath function growKernel may grow its backing array`
	m[1] = 2               // want `map write in hotpath function growKernel may rehash and allocate`
	m[1]++                 // want `map write in hotpath function growKernel may rehash and allocate`
	_ = expand(3)          // proven: annotated callee
	_ = helper(3)          // want `call to helper in hotpath function growKernel: callee is not annotated //qaoa:hotpath`
	_ = math.Sqrt(2)       // allowlisted foreign package
	_ = sim2.Fidelity(buf) // want `call to sim2\.Fidelity in hotpath function growKernel: foreign callee is outside the hotpath allowlist`
	_ = s.Len()            // want `dynamic dispatch to Len in hotpath function growKernel: interface targets cannot be proven allocation-free`
	return buf
}

// highWater keeps an amortized append behind the explicit escape.
//
//qaoa:hotpath
func highWater(buf []float64) []float64 {
	buf = append(buf, 1) //lint:allow hotpath: amortized high-water append
	return buf
}
