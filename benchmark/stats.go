package main

import (
	"math"
	"sort"
	"time"
)

// median of xs (mean of the middle two for an even count); NaN when empty.
// It sorts a copy.
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

// percentileSorted is the nearest-rank percentile of an ascending slice.
func percentileSorted(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder is the fixed set of tail percentiles a latency report may use.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that still has at
// least ten of n samples beyond it. With fewer than 40 samples none qualifies
// and ok is false: a tail of under ten samples is not a measurement.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		if rank := int(math.Ceil(p / 100 * float64(n))); n-rank >= 10 {
			return p, true
		}
	}
	return 0, false
}

// segmentIndex is the segment of [0, window) split k ways that off falls in,
// or -1 when it falls outside.
func segmentIndex(off, window time.Duration, k int) int {
	seg := window / time.Duration(k)
	if seg <= 0 || off < 0 {
		return -1
	}
	if i := int(off / seg); i < k {
		return i
	}
	return -1
}

// segmentLatency groups latency samples by the segment their completion
// offset falls in and returns each segment's median and tail. The tail
// percentile is the highest of tailLadder that leaves ten samples beyond it
// in the smallest segment, so every segment reports the same percentile.
func segmentLatency(lat []float64, end []time.Duration, window time.Duration, k int) (p50s, tails []float64, tailPct float64) {
	groups := make([][]float64, k)
	for n, off := range end {
		if i := segmentIndex(off, window, k); i >= 0 {
			groups[i] = append(groups[i], lat[n])
		}
	}
	smallest := len(lat)
	for _, g := range groups {
		sort.Float64s(g)
		if len(g) < smallest {
			smallest = len(g)
		}
	}
	tailPct, hasTail := tailPercentile(smallest)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		p50s = append(p50s, percentileSorted(g, 50))
		if hasTail {
			tails = append(tails, percentileSorted(g, tailPct))
		}
	}
	return p50s, tails, tailPct
}

// segmentRates splits [0, window) into k equal segments, counts the
// completion offsets that fall in each (each counting weights[i] ops, or one
// when weights is nil), and returns ops per second per segment. Offsets at or
// past the window are dropped.
func segmentRates(offsets []time.Duration, weights []float64, window time.Duration, k int) []float64 {
	counts := make([]float64, k)
	for n, off := range offsets {
		if i := segmentIndex(off, window, k); i >= 0 {
			if weights == nil {
				counts[i]++
			} else {
				counts[i] += weights[n]
			}
		}
	}
	for i := range counts {
		counts[i] /= (window / time.Duration(k)).Seconds()
	}
	return counts
}

// relSpread is (max-min)/median of xs: the in-run dispersion recorded beside
// a segment-median metric so -compare can call a delta unresolved.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

func durationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}
