package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest
// rank, the number of samples beyond it, and whether at least minTail
// samples lie beyond it. It reads raw samples, never histogram buckets.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond = n - rank - 1
	return sorted[rank], beyond, beyond >= minTail
}

// millis converts durations to sorted float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// medianMs is the 0.5 percentile of ds in milliseconds, or 0 when
// there are too few samples to have ten beyond it.
func medianMs(ds []time.Duration) float64 {
	v, _, ok := percentile(millis(ds), 0.5)
	if !ok {
		return 0
	}
	return v
}
