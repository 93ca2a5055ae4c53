package tsdb

import (
	"testing"
	"time"

	"wasmcontainers/internal/obs"
)

// TestSummaryRollsUpWindows drives a DB through three windows and checks the
// rollup: counter totals and rates, gauge ranges, and the per-window p99
// series.
func TestSummaryRollsUpWindows(t *testing.T) {
	tele := obs.New(obs.Config{})
	db := New(tele, Config{Interval: time.Second})
	c := tele.Counter("reqs")
	g := tele.Gauge("depth")
	h := tele.Histogram("lat")
	db.TrackCounter("reqs")
	db.TrackGauge("depth")
	db.TrackHistogram("lat", h)

	if db.Summary() != nil {
		t.Fatal("summary before first window must be nil")
	}
	now := int64(0)
	step := func(reqs int64, depth int64, lat int64) {
		c.Add(reqs)
		g.Set(depth)
		h.Record(lat)
		now += int64(time.Second)
		db.Advance(now)
	}
	step(10, 3, int64(time.Millisecond))
	step(20, 7, int64(time.Millisecond))
	step(30, 5, int64(100*time.Millisecond))

	s := db.Summary()
	if s == nil {
		t.Fatal("summary nil after windows closed")
	}
	if s.IntervalNs != int64(time.Second) || s.Windows.Published != 3 {
		t.Fatalf("summary shape: %+v", s)
	}
	if len(s.Counters) != 1 || s.Counters[0].Total != 60 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if r := s.Counters[0].RatePerSec; r < 19 || r > 21 {
		t.Fatalf("rate = %v, want ~20/s over 3s", r)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Min != 3 || s.Gauges[0].Max != 7 || s.Gauges[0].Last != 5 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	hs := s.Histograms[0]
	if hs.Count != 3 || len(hs.P99PerWindow) != 3 {
		t.Fatalf("histogram rollup: %+v", hs)
	}
	// The last window's p99 must reflect the 100ms outlier; the first two
	// must stay near 1ms.
	if hs.P99PerWindow[2] < 10*hs.P99PerWindow[0] {
		t.Fatalf("p99-over-time missed the outlier window: %v", hs.P99PerWindow)
	}
}

// TestSLOTableTimeSeriesSchema pins the JSON key the bench tables emit, so
// results/<id>.json consumers can rely on the v3 `timeseries` block shape.
func TestSLOTableTimeSeriesSchema(t *testing.T) {
	tele := obs.New(obs.Config{})
	db := New(tele, Config{Interval: time.Second})
	h := tele.Histogram("lat")
	db.TrackHistogram("lat", h)
	h.Record(int64(time.Millisecond))
	db.Advance(int64(time.Second))
	s := db.Summary()
	if s == nil || len(s.Histograms) != 1 || s.Histograms[0].Name != "lat" {
		t.Fatalf("summary: %+v", s)
	}
	if s.Histograms[0].P99 <= 0 {
		t.Fatalf("merged p99 missing: %+v", s.Histograms[0])
	}
}
