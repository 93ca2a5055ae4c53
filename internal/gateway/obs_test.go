package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/obs"
)

// get fetches url and returns the response and full body.
func get(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTimeSeriesByteIdenticalAtDilationZero is the determinism acceptance
// test: two gateways at dilation 0 running the same sequential request
// script must serve byte-identical /v1/timeseries bodies. Window boundaries
// derive only from virtual time (the sampler runs before each event step),
// so no wall-clock jitter can leak into the series.
func TestTimeSeriesByteIdenticalAtDilationZero(t *testing.T) {
	run := func() []byte {
		gw, err := New(Config{
			Functions:      []FunctionConfig{DefaultFunction()},
			Bridge:         BridgeConfig{Dilation: 0},
			SampleInterval: 100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		gw.Start()
		ts := httptest.NewServer(gw)
		defer func() {
			ts.Close()
			gw.Bridge().Stop()
		}()
		client := ts.Client()
		for i := 0; i < 40; i++ {
			resp, body := invoke(t, client, ts.URL+"/v1/functions/request-handler", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("invoke %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
		resp, body := get(t, client, ts.URL+"/v1/timeseries")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/timeseries status %d: %s", resp.StatusCode, body)
		}
		var tr TimeSeriesResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("decode timeseries: %v", err)
		}
		if tr.Stats.Published == 0 {
			t.Fatalf("no windows closed over the run: %+v", tr.Stats)
		}
		return body
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("timeseries bodies differ across identical dilation-0 runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestTailSamplingBoundedUnderConcurrentLoad is the tail-sampler acceptance
// test: 8 concurrent clients against a deterministically faulty function.
// The pending-span buffer must stay under its configured bound while every
// admitted error keeps its span tree in the ring (run with -race to also
// exercise the sampler's locking against concurrent finishes).
func TestTailSamplingBoundedUnderConcurrentLoad(t *testing.T) {
	tele := obs.New(obs.Config{})
	fc := DefaultFunction()
	fc.MaxRetries = 0 // a trap is a final error, not a retry
	gw, err := New(Config{
		Functions:    []FunctionConfig{fc},
		Bridge:       BridgeConfig{Dilation: 0},
		Telemetry:    tele,
		TailSampling: &obs.TailConfig{}, // defaults: 4096 buffered spans
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	fn, ok := gw.Function("request-handler")
	if !ok {
		t.Fatal("function missing")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Fault injection mutates engine state, so it hops onto the loop
	// goroutine like every other simulation mutation.
	if err := gw.Bridge().Do(ctx, func() {
		fn.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 11, TrapRate: 0.4}))
	}); err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 25
	var mu sync.Mutex
	var errTIDs []int64
	var okCount, errCount, errUnsampled, otherCount int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perClient; i++ {
				req, err := http.NewRequest(http.MethodPost,
					ts.URL+"/v1/functions/request-handler", bytes.NewReader([]byte("payload")))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tid, _ := strconv.ParseInt(resp.Header.Get("X-Trace-Tid"), 10, 64)
				sampled := resp.Header.Get("X-Trace-Sampled")
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					okCount++
				case http.StatusInternalServerError:
					errCount++
					errTIDs = append(errTIDs, tid)
					if sampled != "true" {
						errUnsampled++
					}
				default:
					otherCount++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	gw.Bridge().Stop()

	if errCount == 0 || okCount == 0 {
		t.Fatalf("load mix degenerate: ok=%d err=%d other=%d", okCount, errCount, otherCount)
	}
	if errUnsampled != 0 {
		t.Fatalf("%d of %d errors reported unsampled traces", errUnsampled, errCount)
	}
	st := tele.Tracer().TailStats()
	if st.PendingPeak > obs.DefaultTailBufferedSpans {
		t.Fatalf("pending peak %d exceeds bound %d", st.PendingPeak, obs.DefaultTailBufferedSpans)
	}
	if st.EvictedTracks != 0 {
		t.Fatalf("bound forced %d evictions; retention check unsound: %+v", st.EvictedTracks, st)
	}
	if st.PendingSpans != 0 {
		t.Fatalf("spans still pending after drain: %+v", st)
	}
	if st.SampledOutTracks == 0 {
		t.Fatalf("healthy traffic was never sampled out: %+v", st)
	}
	if int(st.KeptTracks) < errCount {
		t.Fatalf("kept %d tracks < %d errors", st.KeptTracks, errCount)
	}
	if d := tele.Tracer().Dropped(); d != 0 {
		t.Fatalf("log overwrote %d spans past DefaultTraceCapacity", d)
	}
	// 100% error-trace retention: every errored request's TID has spans.
	have := map[int64]bool{}
	for _, s := range tele.Tracer().Spans() {
		have[s.TID] = true
	}
	for _, tid := range errTIDs {
		if !have[tid] {
			t.Fatalf("error tid %d has no spans in the ring", tid)
		}
	}
}

// syncBuffer is a goroutine-safe access-log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, l := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		if len(l) > 0 {
			out = append(out, string(l))
		}
	}
	return out
}

// waitLines polls until the access log holds n lines (the logger writes
// after the response is flushed, so the client can race ahead of it).
func waitLines(t *testing.T, buf *syncBuffer, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines := buf.Lines()
		if len(lines) >= n {
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log has %d lines, want %d: %q", len(lines), n, lines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAccessLogFormats drives the same request script through both log
// formats: JSON lines must decode with the full per-request record, and the
// default text format must keep its original shape.
func TestAccessLogFormats(t *testing.T) {
	script := func(t *testing.T, ts *httptest.Server) {
		client := ts.Client()
		resp, _ := invoke(t, client, ts.URL+"/v1/functions/request-handler",
			map[string]string{"X-Request-Id": "req-abc"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke status %d", resp.StatusCode)
		}
		if resp, _ := invoke(t, client, ts.URL+"/v1/functions/nope", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown module status %d", resp.StatusCode)
		}
		if resp, _ := get(t, client, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	}

	t.Run("json", func(t *testing.T) {
		buf := &syncBuffer{}
		gw, err := New(Config{
			Functions:       []FunctionConfig{DefaultFunction()},
			Bridge:          BridgeConfig{Dilation: 0},
			AccessLog:       buf,
			AccessLogFormat: "json",
		})
		if err != nil {
			t.Fatal(err)
		}
		gw.Start()
		ts := httptest.NewServer(gw)
		defer func() {
			ts.Close()
			gw.Bridge().Stop()
		}()
		script(t, ts)
		lines := waitLines(t, buf, 3)

		var recs []accessRecord
		for i, l := range lines {
			var rec accessRecord
			if err := json.Unmarshal([]byte(l), &rec); err != nil {
				t.Fatalf("line %d is not JSON: %v: %s", i, err, l)
			}
			recs = append(recs, rec)
		}
		cases := []struct {
			name              string
			rec               accessRecord
			method, path      string
			status            int
			module, requestID string
			wantInvokeFields  bool
		}{
			{"invoke-ok", recs[0], "POST", "/v1/functions/request-handler", 200, "request-handler", "req-abc", true},
			{"unknown-module", recs[1], "POST", "/v1/functions/nope", 404, "nope", "", false},
			{"healthz", recs[2], "GET", "/healthz", 200, "", "", false},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				r := tc.rec
				if r.Method != tc.method || r.Path != tc.path || r.Status != tc.status {
					t.Fatalf("got %s %s %d, want %s %s %d", r.Method, r.Path, r.Status, tc.method, tc.path, tc.status)
				}
				if r.Module != tc.module {
					t.Fatalf("module = %q, want %q", r.Module, tc.module)
				}
				if tc.requestID != "" && r.RequestID != tc.requestID {
					t.Fatalf("request_id = %q, want %q", r.RequestID, tc.requestID)
				}
				if r.WallMs < 0 {
					t.Fatalf("wall_ms = %v", r.WallMs)
				}
				if got := r.QueueLen != nil && r.InFlight != nil && r.SimLatencyMs != nil &&
					r.Cold != nil && r.TraceSampled != nil; got != tc.wantInvokeFields {
					t.Fatalf("invoke fields present = %v, want %v: %+v", got, tc.wantInvokeFields, r)
				}
				if tc.wantInvokeFields && r.TraceTID == "" {
					t.Fatal("trace_tid missing on invoke line")
				}
			})
		}
	})

	t.Run("text-default", func(t *testing.T) {
		buf := &syncBuffer{}
		gw, err := New(Config{
			Functions: []FunctionConfig{DefaultFunction()},
			Bridge:    BridgeConfig{Dilation: 0},
			AccessLog: buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		gw.Start()
		ts := httptest.NewServer(gw)
		defer func() {
			ts.Close()
			gw.Bridge().Stop()
		}()
		script(t, ts)
		lines := waitLines(t, buf, 3)
		for i, want := range []string{
			"POST /v1/functions/request-handler 200 req_id=req-abc",
			"POST /v1/functions/nope 404",
			"GET /healthz 200",
		} {
			if !bytes.Contains([]byte(lines[i]), []byte(want)) {
				t.Fatalf("text line %d = %q, want substring %q", i, lines[i], want)
			}
		}
		if !bytes.Contains([]byte(lines[0]), []byte(" q=")) {
			t.Fatalf("invoke text line lost queue pressure: %q", lines[0])
		}
	})
}

// TestTimeSeriesCountsFaultBurst checks the surface an availability target
// is read from: 40 healthy requests, then 40 under a 100% trap-rate fault.
// The per-window dispatch_* deltas on /v1/timeseries must add up to exactly
// the requests served and failed, /metrics must report the same totals, and
// tsdb_windows_total must count the windows /v1/timeseries says it published.
func TestTimeSeriesCountsFaultBurst(t *testing.T) {
	fc := DefaultFunction()
	fc.MaxRetries = 0
	gw, err := New(Config{
		Functions:      []FunctionConfig{fc},
		Bridge:         BridgeConfig{Dilation: 0},
		SampleInterval: time.Millisecond,
		SampleCapacity: 1 << 14, // every window of the run stays retained
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	defer func() {
		ts.Close()
		gw.Bridge().Stop()
	}()
	client := ts.Client()

	fn, _ := gw.Function("request-handler")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	onLoop := func(f func()) {
		t.Helper()
		if err := gw.Bridge().Do(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	invokeN := func(n, want int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, _ := invoke(t, client, ts.URL+"/v1/functions/request-handler", nil)
			if resp.StatusCode != want {
				t.Fatalf("invoke %d: status %d, want %d", i, resp.StatusCode, want)
			}
		}
	}

	invokeN(40, http.StatusOK)
	// The injector is engine state, so arming it hops onto the bridge loop.
	onLoop(func() { fn.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 3, TrapRate: 1})) })
	invokeN(40, http.StatusInternalServerError)
	// An empty event on the next boundary makes the loop sample past the
	// last request, closing the window that holds it; the second Do returns
	// once the loop has stepped it.
	onLoop(func() {
		interval := gw.db.Interval()
		gw.sim.At(des.Time((int64(gw.sim.Now())/interval+1)*interval), func() {})
	})
	onLoop(func() {})

	resp, body := get(t, client, ts.URL+"/v1/timeseries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/timeseries status %d: %s", resp.StatusCode, body)
	}
	var tr TimeSeriesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode timeseries: %v", err)
	}
	if tr.Stats.Skipped != 0 || int64(len(tr.Windows)) != tr.Stats.Published {
		t.Fatalf("windows not all retained: %d served, stats %+v", len(tr.Windows), tr.Stats)
	}
	deltas := map[string]int64{}
	for _, w := range tr.Windows {
		for _, c := range w.Counters {
			deltas[c.Name] += c.Delta
		}
	}
	if deltas["dispatch_submitted_total"] != 80 || deltas["dispatch_failed_total"] != 40 ||
		deltas["dispatch_completed_total"] != 40 {
		t.Fatalf("window deltas submitted=%d completed=%d failed=%d, want 80/40/40",
			deltas["dispatch_submitted_total"], deltas["dispatch_completed_total"], deltas["dispatch_failed_total"])
	}

	_, body = get(t, client, ts.URL+"/metrics")
	got, _ := promSamples(t, body)
	for _, name := range []string{"dispatch_submitted_total", "dispatch_failed_total", "dispatch_completed_total"} {
		if got[name] != deltas[name] {
			t.Errorf("/metrics %s = %d, windows sum to %d", name, got[name], deltas[name])
		}
	}
	if got["tsdb_windows_total"] != tr.Stats.Published {
		t.Errorf("/metrics tsdb_windows_total = %d, /v1/timeseries published %d",
			got["tsdb_windows_total"], tr.Stats.Published)
	}
}

// promSamples parses a Prometheus text exposition into sample values and
// the declared TYPE of each family.
func promSamples(t *testing.T, body []byte) (values map[string]int64, kinds map[string]string) {
	t.Helper()
	values, kinds = map[string]int64{}, map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
		} else if len(f) == 2 {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("unparsable sample %q", line)
			}
			values[f[0]] = v
		}
	}
	return values, kinds
}

// TestObservabilityEndpointsDisabled pins the zero-config behaviour: without
// SampleInterval /v1/timeseries 404s with a stable error code. Paths no route
// serves are TestUnmatchedRoutesUseEnvelope's.
func TestObservabilityEndpointsDisabled(t *testing.T) {
	_, ts := newTestGateway(t, DefaultFunction())
	resp, body := get(t, ts.Client(), ts.URL+"/v1/timeseries")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/timeseries status %d, want 404: %s", resp.StatusCode, body)
	}
	if e := decodeEnvelope(t, resp, body); e.Code != "timeseries_disabled" {
		t.Fatalf("/v1/timeseries error code %q, want timeseries_disabled: %s", e.Code, body)
	}
}
