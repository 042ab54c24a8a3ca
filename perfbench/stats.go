package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by the exclusive
// method Python's statistics.quantiles uses: rank h = p·(n+1), linearly
// interpolated between its neighbours and clamped to the sample range.
// xs is not modified. NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(len(s)):
		return s[len(s)-1]
	}
	lo := math.Floor(h)
	return s[int(lo)-1] + (h-lo)*(s[int(lo)]-s[int(lo)-1])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile is the highest whole percentile of an n-sample
// distribution that still has at least ten samples beyond it — the
// highest tail a timing may honestly be reported at. ok is false below
// ten samples, where no percentile qualifies.
func tailPercentile(n int) (pct int, ok bool) {
	if n < 10 {
		return 0, false
	}
	return int(math.Floor(100 - 1000/float64(n))), true
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
