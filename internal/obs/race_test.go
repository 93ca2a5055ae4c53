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
	tele := &Telemetry{metrics: NewRegistry(), tracer: NewTracer(256, nil)}
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

// TestConcurrentTailSamplingAndScrape races span emission against scrapes,
// tail-sampling toggles and track settlement. Spans rebuilds its result
// outside the tracer's lock from a snapshot of the intern table, so this is
// the check that the snapshot is race-free while emitters keep interning.
func TestConcurrentTailSamplingAndScrape(t *testing.T) {
	tr := NewTracer(512, func() int64 { return 0 })
	const workers = 4
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid := int64(w*iters + i + 1)
				tr.Span("invoke", "serve", tid, 0, 1, I64("i", int64(i)), Str("worker", string(rune('a'+w))))
				tr.Span("reset", "pool", tid, 1, 1, Str("v", string(rune('a'+i%26))))
				tr.FinishTrack(tid, TrackOutcome{Err: i%3 == 0})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				tr.SetTailSampling(&TailConfig{MaxBufferedSpans: 16})
			} else {
				tr.SetTailSampling(nil)
			}
			for _, s := range tr.Spans() {
				if s.Name == "" || s.Cat == "" {
					t.Errorf("scraped span lost its strings: %+v", s)
					return
				}
			}
			_ = tr.TailStats()
		}
	}()
	wg.Wait()
	<-done
}
