package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailCandidates are the tail percentiles considered, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// samples. The small offset keeps binary rounding of p (99.9/100 is not
// exact) from pushing an exact rank up by one.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(k, n))
}

// tailPercentile returns the highest candidate percentile that has at
// least minTail of n samples beyond it, or 0 when even the median has not.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= minTail {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of xs (0 for no
// samples). xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[rank(p, len(xs))-1]
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
