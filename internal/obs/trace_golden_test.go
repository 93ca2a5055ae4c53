package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenAttrs returns n attributes mixing numeric and string values, the
// way request-path and lifecycle spans do.
func goldenAttrs(i, n int) []Attr {
	keys := []string{"cold", "engine", "instructions", "state", "wall_ns", "objective"}
	attrs := make([]Attr, 0, n)
	for k := 0; k < n; k++ {
		if k%2 == 1 {
			attrs = append(attrs, Str(keys[k], fmt.Sprintf("v%d-%d", i%3, k)))
		} else {
			attrs = append(attrs, I64(keys[k], int64(i*100+k)))
		}
	}
	return attrs
}

// writeGoldenTrace runs the scripted span sequence the golden file pins and
// returns the Chrome trace of each phase, one JSON document per line.
func writeGoldenTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	dump := func(tr *Tracer) {
		if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: attribute counts 0, 1, 3, 4 and 6, formatted names, and a
	// ring of 8 wrapping past its capacity.
	ring := NewTracer(8, func() int64 { return 0 })
	ring.SetPID(3)
	counts := []int{0, 1, 3, 4, 6}
	for i := 0; i < 13; i++ {
		name := fmt.Sprintf("slo-%s-%s", []string{"page", "ticket"}[i%2], []string{"fire", "clear"}[i%3%2])
		ring.Span(name, "slo", int64(i%4), int64(i*1500), int64(i*1500+750), goldenAttrs(i, counts[i%len(counts)])...)
	}
	// An attribute carrying both fields, and an empty string value.
	ring.Span("both", "edge", 9, 100, 50, Attr{Key: "k", Val: 7, Str: "s"}, Str("empty", ""))
	if got := ring.Dropped(); got != 6 {
		t.Fatalf("ring dropped %d spans, want 6", got)
	}
	dump(ring)

	// Phase 2: tail sampling with a keep, a drop, an eviction, a truncation
	// and a tid-0 bypass, then a SetTailSampling(nil) flush of what is
	// still pending.
	tail := NewTracer(64, func() int64 { return 0 })
	tail.SetPID(4)
	tail.SetTailSampling(&TailConfig{LatencyThreshold: time.Millisecond, MaxBufferedSpans: 6, MaxTrackSpans: 3})
	span := func(name string, tid int64, at int64, attrs ...Attr) {
		tail.Span(name, "serve", tid, at, at+10, attrs...)
	}
	span("queue-wait", 1, 0)
	span("invoke", 1, 10, I64("cold", 1), I64("instructions", 9000), I64("error", 1))
	span("queue-wait", 2, 20)
	span("invoke", 2, 30, I64("cold", 0))
	tail.Span("breaker", "serve", 0, 35, 35, Str("state", "open"))
	if !tail.FinishTrack(1, TrackOutcome{Err: true}) {
		t.Fatal("errored track must be kept")
	}
	if tail.FinishTrack(2, TrackOutcome{LatencyNs: int64(time.Microsecond)}) {
		t.Fatal("healthy track must be dropped")
	}
	for i := 0; i < 5; i++ { // truncated past MaxTrackSpans
		span("acquire", 3, int64(40+i), I64("attempt", int64(i)))
	}
	span("acquire", 4, 50, Str("engine", "wamr"))
	span("acquire", 5, 60, Str("engine", "wasmtime"))
	span("invoke", 5, 70, Str("engine", "wasmtime"), I64("instructions", 12))
	span("invoke", 6, 80) // pushes the buffer past 6: track 3 is evicted
	if !tail.FinishTrack(5, TrackOutcome{LatencyNs: int64(2 * time.Millisecond)}) {
		t.Fatal("latency outlier must be kept")
	}
	if st := tail.TailStats(); st != (TailStats{KeptTracks: 2, SampledOutTracks: 1, EvictedTracks: 1,
		TruncatedSpans: 2, PendingSpans: 2, PendingPeak: 7}) {
		t.Fatalf("tail stats = %+v", st)
	}
	tail.SetTailSampling(nil) // flushes tracks 4 and 6
	dump(tail)
	return buf.Bytes()
}

// TestChromeTraceGolden pins the tracer's retained spans, byte for byte, as
// WriteChromeTrace renders them: attribute packing, interning and ring growth
// must not change what /v1/trace shows.
func TestChromeTraceGolden(t *testing.T) {
	got := writeGoldenTrace(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chrome trace drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
