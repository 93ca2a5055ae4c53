package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // 75th percentile would leave nine beyond
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true}, // p99 of 999 leaves nine beyond
		{1000, 99, true},
		{50000, 99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileSortedNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentileSorted(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentileSorted(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSegmentRatesMedianIgnoresAStall(t *testing.T) {
	// 100 ops/s for five seconds, except that the third second stalls.
	var ends []time.Duration
	for s := 0; s < 5; s++ {
		n := 100
		if s == 2 {
			n = 3
		}
		for i := 0; i < n; i++ {
			ends = append(ends, time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	rates := segmentRates(ends, nil, 5*time.Second, 5)
	if want := []float64{100, 100, 3, 100, 100}; !equal(rates, want) {
		t.Fatalf("segment rates = %v, want %v", rates, want)
	}
	if got := median(rates); got != 100 {
		t.Errorf("median of segments = %v, want 100", got)
	}
	// Weighted: each completion stands for four ops; one past the window is dropped.
	w := segmentRates([]time.Duration{0, time.Second, 6 * time.Second}, []float64{4, 4, 4}, 5*time.Second, 5)
	if want := []float64{4, 4, 0, 0, 0}; !equal(w, want) {
		t.Errorf("weighted segment rates = %v, want %v", w, want)
	}
}

func TestSegmentLatencyUsesOnePercentileForEverySegment(t *testing.T) {
	var lat []float64
	var end []time.Duration
	add := func(seg, n int) {
		for i := 0; i < n; i++ {
			lat = append(lat, float64(i+1))
			end = append(end, time.Duration(seg)*time.Second)
		}
	}
	add(0, 2000)
	add(1, 150) // too few for p99 or p95: every segment drops to p90
	p50s, tails, pct := segmentLatency(lat, end, 2*time.Second, 2)
	if pct != 90 {
		t.Fatalf("tail percentile = %v, want 90", pct)
	}
	if !equal(p50s, []float64{1000, 75}) || !equal(tails, []float64{1800, 135}) {
		t.Errorf("p50s %v tails %v, want [1000 75] [1800 135]", p50s, tails)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
