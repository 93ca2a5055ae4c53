package tsdb

import (
	"testing"
	"time"

	"wasmcontainers/internal/obs"
)

func newTestDB(t *testing.T, cfg Config) (*DB, *obs.Telemetry) {
	t.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = 100 * time.Nanosecond
	}
	tele := obs.New(obs.Config{})
	db := New(tele, cfg)
	if db == nil {
		t.Fatal("New returned nil for a valid config")
	}
	return db, tele
}

func TestDisabledNilDB(t *testing.T) {
	var db *DB
	db.TrackCounter("c")
	db.TrackGauge("g")
	db.TrackHistogram("h", nil)
	db.Advance(1e9)
	if db.Windows(0) != nil || db.Windows(1) != nil {
		t.Fatal("nil DB reads must be zero values")
	}
	if db.Stats() != (Stats{}) || db.Interval() != 0 {
		t.Fatal("nil DB stats must be zero")
	}
	if New(nil, Config{}) != nil {
		t.Fatal("zero interval must construct the disabled state")
	}
}

func TestCounterDeltasAcrossWindows(t *testing.T) {
	db, tele := newTestDB(t, Config{})
	c := tele.Counter("reqs_total")
	c.Add(5)
	db.TrackCounter("reqs_total") // prev seeds at 5: pre-tracking traffic is not a delta
	c.Add(3)
	db.Advance(100) // closes [0,100)
	c.Add(7)
	db.Advance(250) // closes [100,200) and fast-forwards nothing; also [200,300)? no: 250 < 300
	ws := db.Windows(0)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if ws[0].Counters[0].Delta != 3 || ws[0].Counters[0].Total != 8 {
		t.Fatalf("window 0 = %+v", ws[0].Counters[0])
	}
	if ws[1].Counters[0].Delta != 7 || ws[1].Counters[0].Total != 15 {
		t.Fatalf("window 1 = %+v", ws[1].Counters[0])
	}
	if ws[0].Start != 0 || ws[0].End != 100 || ws[1].Start != 100 || ws[1].End != 200 {
		t.Fatalf("window edges = [%d,%d) [%d,%d)", ws[0].Start, ws[0].End, ws[1].Start, ws[1].End)
	}
}

func TestAdvanceFastPathAndMultiClose(t *testing.T) {
	db, tele := newTestDB(t, Config{})
	db.TrackGauge("depth")
	db.Advance(50) // no boundary crossed
	if db.Stats().Published != 0 {
		t.Fatal("no window may close before the first boundary")
	}
	tele.Gauge("depth").Set(4)
	db.Advance(350) // closes [0,100) [100,200) [200,300)
	if got := db.Stats().Published; got != 3 {
		t.Fatalf("published = %d, want 3", got)
	}
	for _, w := range db.Windows(0) {
		if w.Gauges[0].Value != 4 {
			t.Fatalf("gauge window = %+v", w)
		}
	}
}

func TestHistogramWindowsMergeToQuantile(t *testing.T) {
	db, tele := newTestDB(t, Config{})
	h := tele.Histogram("lat")
	db.TrackHistogram("lat", h)
	// Window 1: 99 fast samples; window 2: one slow outlier.
	for i := 0; i < 99; i++ {
		h.Record(10)
	}
	db.Advance(100)
	h.Record(1 << 20)
	db.Advance(200)
	ws := db.Windows(0)
	if ws[0].Histograms[0].CountDelta != 99 || ws[1].Histograms[0].CountDelta != 1 {
		t.Fatalf("count deltas = %d/%d", ws[0].Histograms[0].CountDelta, ws[1].Histograms[0].CountDelta)
	}
	// Merged p99 over both windows must land in the outlier's bucket range.
	p99 := obs.QuantileOf(mergeBuckets(ws, "lat"), 0.995)
	lo, hi := obs.BucketRange(obsBucketOf(1 << 20))
	if p99 < lo || p99 > hi {
		t.Fatalf("merged p99.5 = %d, want within [%d,%d]", p99, lo, hi)
	}
	// The trailing window alone holds only the outlier.
	if got := obs.QuantileOf(mergeBuckets(ws[1:], "lat"), 0.5); got < lo || got > hi {
		t.Fatalf("trailing-window p50 = %d, want outlier bucket [%d,%d]", got, lo, hi)
	}
}

// mergeBuckets sums one histogram's bucket deltas across windows, the merge a
// /v1/timeseries reader does before obs.QuantileOf.
func mergeBuckets(ws []*Window, name string) []int64 {
	merged := make([]int64, obs.NumBuckets())
	for _, w := range ws {
		for _, h := range w.Histograms {
			if h.Name == name {
				for _, b := range h.Buckets {
					merged[b.Idx] += b.Count
				}
			}
		}
	}
	return merged
}

// obsBucketOf finds the shared-layout bucket index holding v.
func obsBucketOf(v int64) int {
	for i := 0; i < obs.NumBuckets(); i++ {
		lo, hi := obs.BucketRange(i)
		if v >= lo && v <= hi {
			return i
		}
	}
	return -1
}

func TestRingEvictionAndWindowsMax(t *testing.T) {
	db, _ := newTestDB(t, Config{Capacity: 4})
	db.TrackCounter("c")
	for i := int64(1); i <= 10; i++ {
		db.Advance(i * 100)
	}
	ws := db.Windows(0)
	if len(ws) != 4 {
		t.Fatalf("retained = %d, want 4", len(ws))
	}
	if ws[0].Seq != 6 || ws[3].Seq != 9 {
		t.Fatalf("retained seqs = %d..%d, want 6..9", ws[0].Seq, ws[3].Seq)
	}
	if got := db.Windows(2); len(got) != 2 || got[1].Seq != 9 {
		t.Fatalf("Windows(2) = %+v", got)
	}
	if got := db.Windows(1); len(got) != 1 || got[0].Seq != 9 {
		t.Fatalf("Windows(1) = %+v", got)
	}
}

func TestIdleGapFastForward(t *testing.T) {
	db, _ := newTestDB(t, Config{Capacity: 8})
	db.Advance(100 * 1000) // 1000 boundaries crossed, capacity 8
	st := db.Stats()
	if st.Published != 8 {
		t.Fatalf("published = %d, want capacity 8", st.Published)
	}
	if st.Skipped != 992 {
		t.Fatalf("skipped = %d, want 992", st.Skipped)
	}
	last := db.Windows(1)[0]
	if last.End != 100*1000 {
		t.Fatalf("last window ends at %d, want 100000", last.End)
	}
	if last.Seq != 999 {
		t.Fatalf("last seq = %d, want 999 (skips keep numbering)", last.Seq)
	}
}

// TestWindowDeltasSumToLastTotal: a sampler advancing before each event
// closes one window per boundary, and the closed windows' deltas conserve
// the counter's total.
func TestWindowDeltasSumToLastTotal(t *testing.T) {
	db, tele := newTestDB(t, Config{})
	c := tele.Counter("reqs_total")
	db.TrackCounter("reqs_total")
	// Workload: one increment every 30ns until t=1000.
	for now := int64(0); now <= 1000; now += 30 {
		db.Advance(now)
		c.Inc()
	}
	db.Advance(1000)
	ws := db.Windows(0)
	if len(ws) != 10 {
		t.Fatalf("windows = %d, want 10", len(ws))
	}
	var total int64
	for _, w := range ws {
		total += w.Counters[0].Delta
	}
	// 34 increments (t=0..990 step 30), all before the last boundary.
	last := ws[len(ws)-1].Counters[0].Total
	if total != last || last != 34 {
		t.Fatalf("window deltas (%d) must sum to the last total (%d), want 34", total, last)
	}
}

func TestLateRegistrationJoinsNextWindow(t *testing.T) {
	db, tele := newTestDB(t, Config{})
	db.Advance(100)
	c := tele.Counter("late_total")
	c.Add(4)
	db.TrackCounter("late_total")
	c.Add(2)
	db.Advance(200)
	last := db.Windows(1)[0]
	if len(last.Counters) != 1 || last.Counters[0].Delta != 2 || last.Counters[0].Total != 6 {
		t.Fatalf("late series window = %+v", last.Counters)
	}
	if first := db.Windows(0)[0]; len(first.Counters) != 0 {
		t.Fatalf("pre-registration window must have no series, got %+v", first.Counters)
	}
}

func TestConcurrentReadersDoNotTear(t *testing.T) {
	db, tele := newTestDB(t, Config{Capacity: 4})
	c := tele.Counter("c")
	db.TrackCounter("c")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			for _, w := range db.Windows(0) {
				if len(w.Counters) != 1 || w.Counters[0].Name != "c" {
					panic("torn window")
				}
			}
		}
	}()
	for i := int64(1); i <= 5000; i++ {
		c.Inc()
		db.Advance(i * 100)
	}
	<-done
	// Chronological order must survive wraps.
	ws := db.Windows(0)
	for i := 1; i < len(ws); i++ {
		if ws[i].Seq != ws[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d then %d", ws[i-1].Seq, ws[i].Seq)
		}
	}
}
