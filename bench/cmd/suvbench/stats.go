package main

import (
	"fmt"
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, one outlier moves it.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", p, minTail, n, n-rank)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// quartiles returns the three cut points of xs into quarters by the
// method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads computed here match the ones a Python check
// computes from the same values. It needs at least two values.
func quartiles(xs []float64) ([3]float64, bool) {
	var q [3]float64
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// spread returns the distance between the first and third quartiles of
// xs as a share of their median (0 when it cannot be computed).
func spread(xs []float64) float64 {
	q, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(med)
}
