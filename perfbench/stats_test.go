package main

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles(xs, n=4)
// and statistics.median return for the same samples; Python refuses a
// single sample, which here is every quantile of itself.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{7, 1, 3, 5, 9}, 5, 2, 8},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
		{[]float64{6}, 6, 6, 6},
	} {
		orig := append([]float64(nil), tc.xs...)
		q1, q3 := percentile(tc.xs, 0.25), percentile(tc.xs, 0.75)
		if got := median(tc.xs); got != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", tc.xs, got, q1, q3, tc.med, tc.q1, tc.q3)
		}
		for i := range orig {
			if tc.xs[i] != orig[i] {
				t.Fatalf("percentile reordered its input: %v", tc.xs)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestPercentileClampsToSampleRange(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := percentile(xs, 0.01); got != 1 {
		t.Errorf("p1 of 3 samples = %v, want the minimum", got)
	}
	if got := percentile(xs, 0.99); got != 3 {
		t.Errorf("p99 of 3 samples = %v, want the maximum", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		ok     bool
	}{
		{9, 0, false},
		{10, 0, true},
		{99, 89, true},
		{100, 90, true},
		{250, 96, true},
		{1000, 99, true},
		{4987, 99, true},
	} {
		pct, ok := tailPercentile(tc.n)
		if pct != tc.pct || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, pct, ok, tc.pct, tc.ok)
		}
		if ok && float64(tc.n)*(1-float64(pct)/100) < 10-1e-9 {
			t.Errorf("n=%d: p%d leaves fewer than 10 samples beyond", tc.n, pct)
		}
	}
	// On a synthetic sample, p90 of 100 values leaves exactly ten above.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90 := percentile(xs, 0.9)
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p90 = %v, want 10", beyond, p90)
	}
}
