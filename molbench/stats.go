package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value with at least p% of the samples at or below it.
// vals need not be sorted; it is not modified. An empty slice gives NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile of vals.
func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles returns the first quartile, median and third quartile of vals
// with the same rule as Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), so spreads printed here match that recipe.
// It needs at least two values; fewer give NaN.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	if len(vals) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// Rank i*(n+1)/4 (1-based), clamped to [1, n-1] and interpolated
		// between neighbours; Python extrapolates past the clamp, so the
		// weight uses the clamped rank too.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles of vals as a share of their
// median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// dueLatency is an open-loop request's latency: from when it was due to be
// sent to when its reply was read. Timing from the due time charges a
// stall to every request queued behind it, not only to the one that hit it.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// lateness is how far behind schedule the generator sent a request.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean returns the arithmetic mean of vals, 0 for none.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// windowed splits samples into consecutive windows of width seconds over
// [0, span) by their time at[i] and returns the p-th percentile of vals in
// each full window that has samples.
func windowed(at, vals []float64, width, span, p float64) []float64 {
	groups := make([][]float64, int(span/width))
	for i, t := range at {
		if w := int(t / width); w < len(groups) {
			groups[w] = append(groups[w], vals[i])
		}
	}
	var out []float64
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, percentile(g, p))
		}
	}
	return out
}

// windowRates counts events at times at[i] in consecutive windows of
// width seconds over [0, span) and returns each full window's rate per
// second.
func windowRates(at []float64, width, span float64) []float64 {
	counts := make([]float64, int(span/width))
	for _, t := range at {
		if w := int(t / width); w < len(counts) {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width
	}
	return counts
}
