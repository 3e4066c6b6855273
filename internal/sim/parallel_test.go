package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/leaktest"
)

// ApplyZZ fanned out and serial must agree bit for bit: each chunk
// multiplies its own amplitudes by the same two phases. The fan-out's
// workers must all have exited once ApplyZZ returns.
func TestParallelMatchesSerial(t *testing.T) {
	saved := parallelThreshold
	defer func() { parallelThreshold = saved }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	baseline := runtime.NumGoroutine()

	const n = 10
	base := RandomState(n, rand.New(rand.NewSource(1)))
	run := func(threshold int) *State {
		parallelThreshold = threshold
		s := base.Clone()
		for i := 0; i < 2*n; i++ {
			s.ApplyZZ(i%n, (i+3)%n, 0.2+0.1*float64(i))
		}
		return s
	}
	serial := run(1 << 30)
	parallel := run(1)
	leaktest.Check(t, baseline)

	for i := range serial.Amp {
		if serial.Amp[i] != parallel.Amp[i] {
			t.Fatalf("amplitude %d differs: %v vs %v", i, serial.Amp[i], parallel.Amp[i])
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	saved := parallelThreshold
	defer func() { parallelThreshold = saved }()
	parallelThreshold = 4

	hits := make([]int32, 1000)
	parallelFor(len(hits), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	// Serial path (n below threshold after restore).
	parallelThreshold = 1 << 30
	count := 0
	parallelFor(10, func(lo, hi int) { count += hi - lo })
	if count != 10 {
		t.Errorf("serial path covered %d of 10", count)
	}
}

// BenchmarkApply1QLarge measures the serial 1Q kernel on a 20-qubit state,
// where the register no longer fits in cache.
func BenchmarkApply1QLarge(b *testing.B) {
	s := NewState(20)
	s.Apply1Q(0, matH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply1Q(i%20, matH)
	}
}

// BenchmarkApplyZZLarge measures ApplyZZ's fan-out on a 20-qubit state: the
// gate-by-gate path's full-state sweep, the one kernel parallelFor serves.
func BenchmarkApplyZZLarge(b *testing.B) {
	s := NewState(20)
	for q := 0; q < 20; q++ {
		s.Apply1Q(q, matH)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyZZ(i%20, (i+1)%20, 0.3)
	}
}
