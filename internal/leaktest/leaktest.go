// Package leaktest checks that the goroutines a test started have exited.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check polls runtime.NumGoroutine until it is at most baseline and fails
// t, with every goroutine's stack, if that has not happened within 10 s.
// It polls because a goroutine that has signalled its caller (wg.Done, a
// closed channel, a closed listener) still takes a moment to exit.
func Check(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d at baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
