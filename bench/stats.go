package main

import (
	"math"
	"sort"
)

// median of xs; 0 for none. xs is not reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how the
// driver computes a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// relDiff is |a-b| as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(a)
}
