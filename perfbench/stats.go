package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS returns the latencies in milliseconds, ascending.
func sortedMS(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile of ascending data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the nearest rank of the p-th percentile among n values, in exact
// integer arithmetic over p in tenths of a percent.
func rank(n int, p float64) int {
	pt := int(math.Round(p * 10))
	return (n*pt + 999) / 1000
}

// quartiles follows Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), so spreads printed here match spreads computed
// that way from the result lines. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
