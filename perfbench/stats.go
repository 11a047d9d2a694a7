package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks over n-1 intervals, the "inclusive"
// method of Python's statistics.quantiles. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailPercentiles are the candidates tail tries, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that has at
// least ten samples strictly beyond its rank, with its value. A timing
// is reported as its median plus this tail, so a p99 is only claimed
// when there are enough samples above it to make it more than the
// maximum. With fewer than eleven samples no percentile qualifies and
// tail reports the maximum as percentile 100.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, math.NaN()
	}
	s := sorted(xs)
	for _, p := range tailPercentiles {
		// Nearest rank: the smallest sample with at least p% of the
		// samples at or below it.
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
