package tsdb

import (
	"testing"
	"time"

	"wasmcontainers/internal/obs"
)

// BenchmarkAdvanceDisabled is the zero-cost gate for the disabled sample
// path: with sampling off the gateway still calls Advance on a nil *DB
// before every event step, so that call must not allocate (and must cost a
// single predicted branch). `make obs-overhead` greps this benchmark for
// `0 allocs/op`.
func BenchmarkAdvanceDisabled(b *testing.B) {
	var db *DB
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Advance(int64(i))
	}
}

// BenchmarkAdvanceSameWindow measures the enabled fast path: virtual time
// advances within the current window, so Advance is one atomic load and a
// compare. This is the per-event cost sampling adds to the bridge loop; it
// must also stay allocation-free.
func BenchmarkAdvanceSameWindow(b *testing.B) {
	tele := obs.New(obs.Config{})
	db := New(tele, Config{Interval: time.Hour})
	db.TrackCounter("c")
	db.TrackHistogram("h", tele.Histogram("h"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Advance(int64(i))
	}
}

// BenchmarkCloseWindow measures one window close over a registered series
// set: the O(series) cost paid once per SampleInterval, amortized across
// every event inside the window.
func BenchmarkCloseWindow(b *testing.B) {
	tele := obs.New(obs.Config{})
	db := New(tele, Config{Interval: 1, Capacity: 64})
	for _, n := range []string{"a", "b", "c", "d"} {
		tele.Counter(n).Inc()
		db.TrackCounter(n)
	}
	db.TrackGauge("g")
	h := tele.Histogram("h")
	h.Record(100)
	db.TrackHistogram("h", h)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now++
		db.Advance(now)
	}
}
