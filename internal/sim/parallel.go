package sim

import (
	"runtime"
	"sync"
)

// parallelThreshold is the amplitude count above which ApplyZZ fans out
// across CPU cores. Every other kernel is one serial loop at any size: on
// fused programs the fan-out measured slower than the serial kernels, and
// parallelism lives at trajectory level instead (replayFaulty, forEachPlan).
// A var so tests can force either path.
var parallelThreshold = 1 << 18

// parallelFor runs f over [0,n) in contiguous chunks across GOMAXPROCS
// goroutines when n exceeds parallelThreshold, serially otherwise.
func parallelFor(n int, f func(lo, hi int)) {
	if n <= parallelThreshold {
		f(0, n)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
