package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {96, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {27000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", tc.n, got, tc.want)
		}
	}
	for _, n := range []int{40, 100, 200, 1000} {
		p := tailPercentile(n)
		if beyond := samplesBeyond(n, p); beyond < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond", n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {75, 75}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{10, 20, 30}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of three = %v, %v; want 10, 30", q1, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
