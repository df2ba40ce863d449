package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p95 that is the 8th-worst of 150 samples is an anecdote.
const minBeyond = 10

// percentile returns the exact nearest-rank q-quantile (0 < q < 1) of an
// ascending-sorted sample. ok is false when fewer than minBeyond samples lie
// strictly beyond the returned rank; the caller then omits the metric and
// says why, instead of printing a number the sample cannot support.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(q, n)
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n-1-rank >= minBeyond
}

// nearestRank is the zero-based nearest-rank index of the q-quantile among n
// sorted samples. The epsilon keeps a product like 0.95×200, which is not
// exact in floating point, from rounding up a rank.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n)-1e-9)) - 1
}

// samplesNeeded is the smallest sample size for which percentile(q) is ok.
func samplesNeeded(q float64) int {
	for n := minBeyond + 1; ; n++ {
		if n-1-nearestRank(q, n) >= minBeyond {
			return n
		}
	}
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the middle two for even n) of a small
// set of repeated measurements — slices, boots, runs. Latency samples go
// through percentile instead.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance driver computes its spreads from. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of repeated measurements as a share of
// their median: interquartile range when there are enough runs for one,
// full range otherwise.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) >= 4 {
		q1, q3 := quartiles(xs)
		return math.Abs((q3 - q1) / m)
	}
	s := sortedCopy(xs)
	return math.Abs((s[len(s)-1] - s[0]) / m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
