package obs

import "testing"

// invokeInstrumentation is the exact handle sequence the engine/pool/cache
// hot paths execute per request: counter increments, a histogram record, and
// a nil-guarded span emission. Factored out so the disabled and enabled
// benchmarks measure the same code.
func invokeInstrumentation(hits *Counter, invokes *Counter, lat *Histogram, tr *Tracer, i int64) {
	hits.Inc()
	invokes.Add(2)
	lat.Record(i)
	if tr != nil {
		tr.Span("invoke", "serve", i, i, i+10, I64("instructions", i))
	}
}

// BenchmarkInvokeTelemetryDisabled is the Makefile obs-overhead gate: the
// full per-request instrumentation sequence against nil handles MUST report
// 0 allocs/op — proof that building with telemetry wired but disabled costs
// only predictable nil checks on the hot path.
func BenchmarkInvokeTelemetryDisabled(b *testing.B) {
	var tele *Telemetry
	hits := tele.Counter("hits")
	invokes := tele.Counter("invokes")
	lat := tele.Histogram("lat")
	tr := tele.Tracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invokeInstrumentation(hits, invokes, lat, tr, int64(i))
	}
}

// BenchmarkInvokeTelemetryEnabled is the companion cost figure: the same
// sequence with live handles (atomics plus one log append under a mutex).
// The obs-overhead gate holds it at 0 allocs/op too: Span encodes its
// attributes into the log, so the caller's variadic list stays on its
// stack.
func BenchmarkInvokeTelemetryEnabled(b *testing.B) {
	tele := &Telemetry{metrics: NewRegistry(), tracer: NewTracer(1<<10, func() int64 { return 0 })}
	hits := tele.Counter("hits")
	invokes := tele.Counter("invokes")
	lat := tele.Histogram("lat")
	tr := tele.Tracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invokeInstrumentation(hits, invokes, lat, tr, int64(i))
	}
}

// BenchmarkHistogramRecord isolates the histogram hot path (~ns target).
func BenchmarkHistogramRecord(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}
