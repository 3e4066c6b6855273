package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obsv"
)

// session is one booted workload: a fixed op list generated from the seed
// before any timing, and the state needed to serve it. The runner drives
// it in whole passes over the list, so every run times the same multiset
// of ops and the quality metrics come from one fixed pass.
type session interface {
	// passLen is the number of steps in one pass over the op list.
	passLen() int
	// beginPass prepares pass number pass outside any timing. col is the
	// traced collector, nil when untraced.
	beginPass(ctx context.Context, pass int, col *obsv.Collector) error
	// step runs step i of pass pass, records its ops into rec and checks
	// their outputs: in full on pass 0, against pass 0 afterwards.
	step(ctx context.Context, pass, i int, rec *recorder)
	// quality returns the quality metrics of pass 0.
	quality() quality
	// tree is the span hierarchy the traced run attributes.
	tree() []node
	close()
}

// quality holds the output-quality metrics of one pass over the op list.
// Each is a pure function of the seed.
type quality struct {
	depthMean, swapsMean, argPct, approxRatio float64
	evalsPerRun                               float64
}

// node is one parent span and the child spans it contains. "op" is the
// sum of the op latencies; other names are the benchmark's own spans or
// obsv span names.
type node struct {
	parent   string
	children []string
}

// spanTotal accumulates one obsv span over the traced passes.
type spanTotal struct {
	count int64
	total time.Duration
}

// recorder collects what one measurement phase observed.
type recorder struct {
	col       *obsv.Collector // nil when untraced
	attempted int
	lat       []time.Duration
	// cyc is each op's share of the closed loop's busy time: its latency
	// plus, within one step, the client work since the previous op ended
	// (the optimizer's, between loop evaluations). Checks are excluded.
	cyc      []time.Duration
	mark     time.Time // end of the step's previous op; zero between steps
	passEnds []int     // len(lat) at the end of each pass
	stepEnds []int     // len(lat) at the end of each step
	passes   int
	failed   int
	errs     []string

	// Traced phase only.
	spans     map[string]time.Duration // the benchmark's spans around public calls
	obsSpans  map[string]spanTotal
	counters  map[string]int64
	classLat  map[string][]time.Duration
	respBytes int64
	alloc     uint64
	gcs       uint64
	sample    [2]metrics.Sample
}

func newRecorder(col *obsv.Collector) *recorder {
	r := &recorder{
		col:      col,
		spans:    map[string]time.Duration{},
		obsSpans: map[string]spanTotal{},
		counters: map[string]int64{},
		classLat: map[string][]time.Duration{},
	}
	r.sample[0].Name = "/gc/heap/allocs:bytes"
	r.sample[1].Name = "/gc/cycles/total:gc-cycles"
	return r
}

func (r *recorder) traced() bool { return r.col != nil }

// begin starts timing one op. When traced it first reads the allocation
// and GC counters, so the op's share of both is known.
func (r *recorder) begin() time.Time {
	r.attempted++
	if r.traced() {
		metrics.Read(r.sample[:])
	}
	t0 := time.Now()
	if r.mark.IsZero() {
		r.mark = t0
	}
	return t0
}

// end records the op started at t0 and returns its latency.
func (r *recorder) end(t0 time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(t0)
	r.lat = append(r.lat, d)
	r.cyc = append(r.cyc, now.Sub(r.mark))
	r.mark = now
	if r.traced() {
		a0, g0 := r.sample[0].Value.Uint64(), r.sample[1].Value.Uint64()
		metrics.Read(r.sample[:])
		r.alloc += r.sample[0].Value.Uint64() - a0
		r.gcs += r.sample[1].Value.Uint64() - g0
	}
	return d
}

// span adds d to one of the benchmark's own spans when traced.
func (r *recorder) span(name string, d time.Duration) {
	if r.traced() {
		r.spans[name] += d
	}
}

// class files an op latency under a request class when traced.
func (r *recorder) class(name string, d time.Duration) {
	if r.traced() {
		r.classLat[name] = append(r.classLat[name], d)
	}
}

// fail counts one failed op or check and keeps the first messages.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// addDelta folds the collector's growth over one pass into the totals.
func (r *recorder) addDelta(before, after obsv.Snapshot) {
	prev := map[string]obsv.SpanStat{}
	for _, s := range before.Spans {
		prev[s.Name] = s
	}
	for _, s := range after.Spans {
		t := r.obsSpans[s.Name]
		t.count += s.Count - prev[s.Name].Count
		t.total += time.Duration((s.TotalSec - prev[s.Name].TotalSec) * float64(time.Second))
		r.obsSpans[s.Name] = t
	}
	for k, v := range after.Counters {
		r.counters[k] += v - before.Counters[k]
	}
}

// dur resolves a span name of the tree to its total over the phase.
func (r *recorder) dur(name string) time.Duration {
	if name == "op" {
		var s time.Duration
		for _, d := range r.lat {
			s += d
		}
		return s
	}
	if d, ok := r.spans[name]; ok {
		return d
	}
	return r.obsSpans[name].total
}

// perPass applies f to the op index range [lo, hi) of each pass and
// returns the median of the results. Every pass times the same multiset of
// ops, so the median over passes discounts a pass that contention from
// outside the process slowed.
func (r *recorder) perPass(f func(lo, hi int) float64) float64 {
	var vs []float64
	lo := 0
	for _, hi := range r.passEnds {
		if hi > lo {
			vs = append(vs, f(lo, hi))
		}
		lo = hi
	}
	if len(vs) == 0 {
		return 0
	}
	_, med, _ := quartiles(vs)
	return med
}

// opsPerSec is the closed loop's throughput, ops per busy second.
func (r *recorder) opsPerSec() float64 {
	return r.perPass(func(lo, hi int) float64 {
		var busy time.Duration
		for _, c := range r.cyc[lo:hi] {
			busy += c
		}
		return float64(hi-lo) / busy.Seconds()
	})
}

// stepMedians returns one latency per op: the median latency of the ops
// of its step. Where every op of a step repeats one circuit, this keeps
// the circuit's cost and drops the scheduling jitter between its repeats.
func (r *recorder) stepMedians() []time.Duration {
	out := make([]time.Duration, 0, len(r.lat))
	lo := 0
	for _, hi := range r.stepEnds {
		if hi > lo {
			s := append([]time.Duration(nil), r.lat[lo:hi]...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			m := (s[(len(s)-1)/2] + s[len(s)/2]) / 2
			for i := lo; i < hi; i++ {
				out = append(out, m)
			}
		}
		lo = hi
	}
	return out
}

// measure runs whole passes over the op list until budget has elapsed,
// starting at pass firstPass, and returns what it recorded.
func measure(ctx context.Context, s session, budget time.Duration, col *obsv.Collector, firstPass int) *recorder {
	rec := newRecorder(col)
	start := time.Now()
	for pass := firstPass; ; pass++ {
		if err := s.beginPass(ctx, pass, col); err != nil {
			rec.fail("pass %d: %v", pass, err)
			return rec
		}
		var before obsv.Snapshot
		if col != nil {
			before = col.Snapshot()
		}
		for i := 0; i < s.passLen(); i++ {
			rec.mark = time.Time{}
			s.step(ctx, pass, i, rec)
			rec.stepEnds = append(rec.stepEnds, len(rec.lat))
		}
		if col != nil {
			rec.addDelta(before, col.Snapshot())
		}
		rec.passes++
		rec.passEnds = append(rec.passEnds, len(rec.lat))
		if time.Since(start) >= budget {
			return rec
		}
	}
}

// setupReps is how many times a run boots its workload; setup_s is the
// median boot time and the last boot serves the timed ops.
const setupReps = 5

// boot sets the workload up setupReps times and returns the last session
// with every boot's duration.
func boot(ctx context.Context, w workload, seed int64) (session, []time.Duration, error) {
	var times []time.Duration
	var s session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
			s = nil // let the collection below free it: every boot starts from the same heap
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = w.boot(ctx, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0))
	}
	return s, times, nil
}

// heapLiveMB is the live heap after a forced collection, in MB. The
// second collection also empties the sync.Pool victim caches.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
