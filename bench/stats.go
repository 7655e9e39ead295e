package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the middle two for even counts),
// or 0 for no samples. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// supportedPercentile lowers want to the highest percentile that still has at
// least ten of n samples beyond it (the choosing-metrics rule), never below
// the median. With n = 1000, p99.9 becomes p99.
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	if most := 100 * (1 - 10/float64(n)); want > most {
		want = most
	}
	return math.Max(want, 50)
}

// percentile is the nearest-rank p-th percentile of sorted (ascending)
// samples; 0 with no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// percentileOf sorts a copy of xs and returns the supported percentile
// closest to want, with the percentile actually used.
func percentileOf(xs []float64, want float64) (value, used float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	used = supportedPercentile(len(s), want)
	return percentile(s, used), used
}
