package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"wasmcontainers/internal/metrics"
)

func TestNilHandlesNoOp(t *testing.T) {
	var tele *Telemetry
	c := tele.Counter("c")
	g := tele.Gauge("g")
	h := tele.Histogram("h")
	tr := tele.Tracer()
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatalf("nil telemetry must resolve nil handles, got %v %v %v %v", c, g, h, tr)
	}
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(1)
	h.Record(42)
	tr.Span("x", "y", 0, 0, 1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || recorded(tr) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if got := tele.Snapshot(); len(got.Counters) != 0 || len(got.Gauges) != 0 || len(got.Histograms) != 0 {
		t.Fatalf("nil telemetry snapshot must be empty, got %+v", got)
	}
	if h.Quantile(0.5) != 0 || tr.Now() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil handle reads must be zero values")
	}
}

func TestCounterGaugeRegistry(t *testing.T) {
	tele := New(Config{})
	c := tele.Counter("requests_total")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if tele.Counter("requests_total") != c {
		t.Fatal("registry must return the same counter for the same name")
	}
	g := tele.Gauge("depth")
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	snap := tele.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "requests_total" || snap.Counters[0].Value != 10 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 3 {
		t.Fatalf("snapshot gauges = %+v", snap.Gauges)
	}

	// Sources are read per snapshot and same-name values add up — with each
	// other and with a stored handle; re-registering replaces, nil removes.
	a, b := new(int), new(int)
	emit := func(n int64) func(counter, gauge func(string, int64)) {
		return func(counter, gauge func(string, int64)) {
			counter("requests_total", n)
			gauge("idle", n)
		}
	}
	reg := tele.Metrics()
	reg.SetSource(a, emit(1))
	reg.SetSource(b, emit(2))
	reg.SetSource(b, emit(5))
	snap = tele.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 16 {
		t.Fatalf("counters with sources = %+v, want requests_total 16", snap.Counters)
	}
	if len(snap.Gauges) != 2 || snap.Gauges[1].Name != "idle" || snap.Gauges[1].Value != 6 {
		t.Fatalf("gauges with sources = %+v, want depth 3, idle 6", snap.Gauges)
	}
	reg.SetSource(a, nil)
	reg.SetSource(b, nil)
	if snap = tele.Snapshot(); snap.Counters[0].Value != 10 || len(snap.Gauges) != 1 {
		t.Fatalf("after removing the sources: %+v", snap)
	}
	(*Registry)(nil).SetSource(a, emit(1)) // disabled: no-op
}

func TestHistogramBucketLayout(t *testing.T) {
	// Every representable value must map to a bucket whose bounds contain it.
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<62 + 12345} {
		idx := bucketIdx(v)
		lo, hi := bucketBounds(idx)
		if int64(v) < lo || int64(v) > hi {
			t.Fatalf("value %d landed in bucket %d [%d,%d]", v, idx, lo, hi)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
	}
	// Buckets must tile the axis without gaps or overlaps.
	prevHi := int64(-1)
	for i := 0; i < 100; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
		prevHi = hi
	}
}

func TestHistogramRecordAndQuantile(t *testing.T) {
	h := newHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h.Record(-5) // clamps to 0
	h.Record(5)
	h.Record(10)
	if h.Count() != 3 || h.Sum() != 15 {
		t.Fatalf("count=%d sum=%d, want 3/15", h.Count(), h.Sum())
	}
	if h.min.Load() != 0 || h.max.Load() != 10 {
		t.Fatalf("min=%d max=%d, want 0/10", h.min.Load(), h.max.Load())
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %d, want 0", q)
	}
	if q := h.Quantile(1); q != 10 {
		t.Fatalf("q1 = %d, want 10", q)
	}
}

// TestHistogramQuantileErrorBound checks the recorded p50/p99 stay within one
// bucket width of the exact percentiles metrics.Summarize computes over the
// same samples — the log-linear layout's accuracy contract.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHistogram()
	xs := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform-ish latencies from ~1µs to ~100ms, the serving range.
		v := int64(1000 * (1 << uint(rng.Intn(17))))
		v += rng.Int63n(v)
		h.Record(v)
		xs = append(xs, float64(v))
	}
	exact := metrics.Summarize(xs)
	for _, tc := range []struct {
		q     float64
		exact float64
	}{{0.50, exact.P50}, {0.99, exact.P99}} {
		got := h.Quantile(tc.q)
		// The quantile error bound is the width of the bucket holding the
		// exact value.
		lo, hi := bucketBounds(bucketIdx(uint64(tc.exact)))
		tol := hi - lo + 1
		diff := float64(got) - tc.exact
		if diff < 0 {
			diff = -diff
		}
		if diff > float64(tol) {
			t.Errorf("q%.2f: histogram %d vs exact %.0f, |diff| %.0f > bucket width %d",
				tc.q, got, tc.exact, diff, tol)
		}
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("hits_total", "engine", "wamr"); got != `hits_total{engine="wamr"}` {
		t.Fatalf("Labeled = %s", got)
	}
	two := Labeled(Labeled("m", "a", "1"), "b", "2")
	if two != `m{a="1",b="2"}` {
		t.Fatalf("chained Labeled = %s", two)
	}
	if got := Labeled("m", "k", `va"l`+"\n"); got != `m{k="va\"l\n"}` {
		t.Fatalf("escaped Labeled = %s", got)
	}
	if got := Labeled2("cluster_routed_total", "module", "m1", "node", "worker-0"); got != `cluster_routed_total{module="m1",node="worker-0"}` {
		t.Fatalf("Labeled2 = %s", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	tele := New(Config{})
	tele.Counter(Labeled("hits_total", "engine", "wamr")).Add(3)
	tele.Counter(Labeled("hits_total", "engine", "wasmtime")).Add(4)
	tele.Gauge("depth").Set(2)
	h := tele.Histogram("lat_ns")
	h.Record(5)
	h.Record(5)
	h.Record(900)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tele.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hits_total counter\n",
		`hits_total{engine="wamr"} 3` + "\n",
		`hits_total{engine="wasmtime"} 4` + "\n",
		"# TYPE depth gauge\n",
		"depth 2\n",
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="5"} 2` + "\n",
		`lat_ns_bucket{le="+Inf"} 3` + "\n",
		"lat_ns_sum 910\n",
		"lat_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE hits_total") != 1 {
		t.Error("one TYPE line per base name expected")
	}
	// Cumulative le series must be non-decreasing and end at count.
	if !strings.Contains(out, `lat_ns_bucket{le="959"} 3`) {
		t.Errorf("cumulative bucket for 900 missing:\n%s", out)
	}
}

func TestTracerRingAndSpans(t *testing.T) {
	clock := int64(0)
	tr := NewTracer(4, func() int64 { return clock })
	tr.SetPID(9)
	for i := int64(1); i <= 6; i++ {
		tr.Span("s", "c", i, i*10, i*10+5)
	}
	if recorded(tr) != 6 || tr.Dropped() != 2 {
		t.Fatalf("recorded=%d dropped=%d, want 6/2", recorded(tr), tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		wantTID := int64(i + 3) // oldest retained is #3
		if s.TID != wantTID || s.Start != wantTID*10 || s.Dur != 5 || s.PID != 9 {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	// Negative durations clamp.
	tr.Span("neg", "c", 0, 100, 50)
	all := tr.Spans()
	if got := all[len(all)-1].Dur; got != 0 {
		t.Fatalf("negative duration must clamp to 0, got %d", got)
	}
}

func TestWriteChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(8, func() int64 { return 0 })
	tr.SetPID(1)
	tr.Span("invoke", "serve", 7, 2000, 5000, I64("instructions", 42), Str("engine", "wamr"))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			PID  int64                  `json:"pid"`
			TID  int64                  `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "invoke" || ev.Ph != "X" || ev.TS != 2 || ev.Dur != 3 || ev.PID != 1 || ev.TID != 7 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Args["instructions"] != float64(42) || ev.Args["engine"] != "wamr" {
		t.Fatalf("args = %+v", ev.Args)
	}
}

func TestSnapshotHistograms(t *testing.T) {
	tele := New(Config{})
	h := tele.Histogram("pages")
	h.Record(1)
	h.Record(1)
	h.Record(300)
	snap := tele.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Name != "pages" || hs.Count != 3 || hs.Sum != 302 || hs.Min != 1 || hs.Max != 300 {
		t.Fatalf("snapshot = %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket counts sum to %d, want 3", total)
	}
}

// recorded is how many spans tr ever recorded: the retained ones plus the
// ones the ring has since overwritten.
func recorded(tr *Tracer) int64 { return int64(len(tr.Spans())) + tr.Dropped() }
