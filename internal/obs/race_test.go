package obs

import (
	"sync"
	"testing"
)

// TestConcurrentRecordAndSnapshot hammers one telemetry instance from eight
// goroutines — counters, gauges, histograms, spans — while another snapshots
// and exports concurrently. Run under -race (make race) this is the
// thread-safety contract of the whole package.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tele := New(Config{TraceCapacity: 256})
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tele.Counter("c")
			g := tele.Gauge("g")
			h := tele.Histogram("h")
			tr := tele.Tracer()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Record(int64(i * w))
				if tr != nil {
					tr.Span("s", "t", int64(w), int64(i), int64(i+1), I64("i", int64(i)))
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := tele.Snapshot()
			_ = snap
			_ = tele.Tracer().Spans()
			_ = tele.Tracer().Now()
		}
	}()
	wg.Wait()
	<-done
	if got := tele.Counter("c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := tele.Histogram("h").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := recorded(tele.Tracer()); got != workers*iters {
		t.Fatalf("spans recorded = %d, want %d", got, workers*iters)
	}
}
