package obs

import (
	"testing"
	"time"
)

func tailTracer(cfg TailConfig) *Tracer {
	tr := NewTracer(64, func() int64 { return 0 })
	tr.SetTailSampling(&cfg)
	return tr
}

func TestTailSamplingKeepsErrorsDropsHealthy(t *testing.T) {
	tr := tailTracer(TailConfig{LatencyThreshold: time.Millisecond})
	for tid := int64(1); tid <= 3; tid++ {
		tr.Span("queue-wait", "serve", tid, 0, 10)
		tr.Span("invoke", "serve", tid, 10, 20)
	}
	if got := recorded(tr); got != 0 {
		t.Fatalf("undecided spans must not hit the ring, recorded = %d", got)
	}
	if !tr.FinishTrack(1, TrackOutcome{Err: true}) {
		t.Fatal("errored track must be kept")
	}
	if tr.FinishTrack(2, TrackOutcome{LatencyNs: int64(time.Microsecond)}) {
		t.Fatal("fast healthy track must be dropped")
	}
	if !tr.FinishTrack(3, TrackOutcome{LatencyNs: int64(2 * time.Millisecond)}) {
		t.Fatal("latency outlier must be kept")
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring has %d spans, want 4 (tracks 1 and 3)", len(spans))
	}
	for _, s := range spans {
		if s.TID != 1 && s.TID != 3 {
			t.Fatalf("dropped track leaked span %+v", s)
		}
	}
	st := tr.TailStats()
	if st.KeptTracks != 2 || st.SampledOutTracks != 1 || st.PendingSpans != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTailSamplingTIDZeroBypasses(t *testing.T) {
	tr := tailTracer(TailConfig{})
	tr.Span("pool-fill", "pool", 0, 0, 1)
	if got := recorded(tr); got != 1 {
		t.Fatalf("tid-0 spans must commit immediately, recorded = %d", got)
	}
	if st := tr.TailStats(); st.PendingSpans != 0 {
		t.Fatalf("tid-0 span buffered: %+v", st)
	}
}

func TestTailSamplingMemoryBound(t *testing.T) {
	// 3-span bound with 2-span tracks: opening a second track must evict the
	// first whole track, never exceed the bound.
	tr := tailTracer(TailConfig{MaxBufferedSpans: 3, MaxTrackSpans: 8})
	tr.Span("a", "c", 1, 0, 1)
	tr.Span("b", "c", 1, 1, 2)
	tr.Span("a", "c", 2, 2, 3)
	tr.Span("b", "c", 2, 3, 4) // 4 > 3: evict track 1
	st := tr.TailStats()
	if st.PendingSpans != 2 || st.EvictedTracks != 1 || st.PendingPeak > 4 {
		t.Fatalf("stats = %+v", st)
	}
	// Evicted track settles as unknown: FinishTrack reports the keep decision
	// but commits nothing.
	if !tr.FinishTrack(1, TrackOutcome{Err: true}) {
		t.Fatal("keep decision still reported for evicted track")
	}
	if got := recorded(tr); got != 0 {
		t.Fatalf("evicted track must have no spans to commit, recorded = %d", got)
	}
	// The surviving track is intact.
	if !tr.FinishTrack(2, TrackOutcome{Err: true}) || len(tr.Spans()) != 2 {
		t.Fatalf("surviving track lost spans: %d", len(tr.Spans()))
	}
}

func TestTailSamplingSingleTrackTruncates(t *testing.T) {
	// When the only pending track hits the whole-buffer bound, its newest
	// spans are dropped instead of evicting the track itself.
	tr := tailTracer(TailConfig{MaxBufferedSpans: 2, MaxTrackSpans: 8})
	for i := int64(0); i < 5; i++ {
		tr.Span("s", "c", 7, i, i+1)
	}
	st := tr.TailStats()
	if st.PendingSpans != 2 || st.TruncatedSpans != 3 || st.EvictedTracks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !tr.FinishTrack(7, TrackOutcome{Err: true}) || len(tr.Spans()) != 2 {
		t.Fatalf("truncated track must keep its oldest spans: %d", len(tr.Spans()))
	}
}

func TestTailSamplingPerTrackCap(t *testing.T) {
	tr := tailTracer(TailConfig{MaxTrackSpans: 2})
	for i := int64(0); i < 4; i++ {
		tr.Span("s", "c", 1, i, i+1)
	}
	st := tr.TailStats()
	if st.PendingSpans != 2 || st.TruncatedSpans != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTailSamplingDisableFlushes(t *testing.T) {
	tr := tailTracer(TailConfig{})
	tr.Span("a", "c", 1, 0, 1)
	tr.Span("b", "c", 2, 1, 2)
	tr.SetTailSampling(nil)
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("disable must flush pending spans to the ring, got %d", got)
	}
	// With sampling off every span commits and FinishTrack reports kept.
	tr.Span("c", "c", 3, 2, 3)
	if recorded(tr) != 3 || !tr.FinishTrack(3, TrackOutcome{}) {
		t.Fatal("disabled tracer must commit directly")
	}
}

func TestTailSamplingUnknownTrack(t *testing.T) {
	tr := tailTracer(TailConfig{})
	// A request refused at admission emits no spans; settling it is a no-op
	// that still reports the keep decision.
	if tr.FinishTrack(99, TrackOutcome{}) {
		t.Fatal("healthy unknown track must report dropped")
	}
	if !tr.FinishTrack(99, TrackOutcome{Err: true}) {
		t.Fatal("errored unknown track must report kept")
	}
	if recorded(tr) != 0 {
		t.Fatal("unknown tracks must not commit spans")
	}
}

func TestTailSamplingDefaults(t *testing.T) {
	tr := tailTracer(TailConfig{})
	tr.mu.Lock()
	cfg := tr.tail
	tr.mu.Unlock()
	if cfg.MaxBufferedSpans != DefaultTailBufferedSpans || cfg.MaxTrackSpans != DefaultTailTrackSpans {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
