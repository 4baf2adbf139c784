package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report.
var tailLadder = []float64{50, 75, 90, 95, 99}

// samplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile applies the reporting rule: the highest percentile of the
// ladder that still has at least ten samples beyond it. Below twenty samples
// nothing qualifies and the median is all that can be said.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of xs (which it sorts a copy
// of); NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median (mean of the two central values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// does (exclusive method), so -selfcheck reproduces the spread a driver
// written against that function computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// ratio is num/den, or 0 when the denominator is 0 (a layer that did no work
// reports 0, not NaN: the result line must stay valid JSON).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
