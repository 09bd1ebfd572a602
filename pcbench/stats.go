package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 read from fewer is one or two outliers, not a tail.
const minTail = 10

// failedLatency is the latency recorded for a refused or failed
// request: it misses every latency limit, so it sorts above every
// real sample and drags the percentiles it lands on with it.
var failedLatency = math.Inf(1)

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of the samples (the mean of the two middle
// ones for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	if math.IsInf(s[n/2], 1) {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile (0 < q < 1) of
// the samples, and an error unless at least minTail samples lie
// strictly beyond its rank.
func tailPercentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return math.NaN(), fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d (need %d samples)",
			q*100, n, beyond, minTail, samplesFor(q))
	}
	return sortedCopy(xs)[rank-1], nil
}

// samplesFor is the smallest sample count whose q-quantile has minTail
// samples beyond it.
func samplesFor(q float64) int {
	n := minTail
	for n-int(math.Ceil(q*float64(n))) < minTail {
		n++
	}
	return n
}

// finite maps a latency that missed every limit to the largest finite
// number, so it survives JSON encoding and still compares as worst.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// windowed splits samples (in completion order) into consecutive
// windows of samplesFor(q) samples — the fewest whose q-quantile has
// minTail samples beyond it — and returns the median over the windows
// of each window's median, and the lowest of the windows'
// q-quantiles. Time the machine takes from the process (another
// guest's steal, a noisy neighbour) only ever adds latency, and it
// comes in bursts that pile up in a tail, so the least-disturbed
// window's tail is the steadiest reading of the program's own; every
// window's quantile still obeys the tail rule. Samples left over
// after the last whole window are dropped; fewer than one window is
// an error.
func windowed(xs []float64, q float64) (p50, pq float64, windows int, err error) {
	size := samplesFor(q)
	windows = len(xs) / size
	if windows == 0 {
		_, err = tailPercentile(xs, q)
		return math.NaN(), math.NaN(), 0, err
	}
	meds := make([]float64, windows)
	tails := make([]float64, windows)
	for w := 0; w < windows; w++ {
		win := xs[w*size : (w+1)*size]
		meds[w] = median(win)
		if tails[w], err = tailPercentile(win, q); err != nil {
			return math.NaN(), math.NaN(), windows, err
		}
	}
	return median(meds), slices.Min(tails), windows, nil
}
