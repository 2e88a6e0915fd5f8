package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN for no values.
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

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the smallest value with at least p% of the values at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPermille are the tail percentiles a report may name, in tenths of a
// percent, highest first.
var tailPermille = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile of tailPermille that has at
// least ten of n samples beyond its nearest rank, so a named tail is never
// set by a handful of outliers. It returns 50 (the median) when even the
// 75th is unsupported.
func tailPercentile(n int) float64 {
	for _, pm := range tailPermille {
		rank := (n*pm + 999) / 1000
		if n-rank >= 10 {
			return float64(pm) / 10
		}
	}
	return 50
}

// percentileName renders a percentile as a metric suffix: 99 → "p99",
// 99.9 → "p99.9".
func percentileName(p float64) string {
	return "p" + fmt.Sprint(p)
}
