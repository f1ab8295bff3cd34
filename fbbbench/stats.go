package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a p99
// over 200 samples is the second-largest value, which says nothing about a
// tail, so such a percentile is refused instead of reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (which it sorts
// in place). It refuses a percentile with fewer than minBeyond samples
// above it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", p)
	}
	rank := max(int(math.Ceil(p/100*float64(n))), 1)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	slices.Sort(xs)
	return xs[rank-1], nil
}

// median returns the middle of xs (mean of the two middle values for an even
// count), sorting xs in place; 0 for no samples. It is for replays and
// repeated set-ups, whose few samples are each already an aggregate.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work on a workload
// reports zero, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
