package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/obs/slo"
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
	tele := obs.New(obs.Config{TraceCapacity: 1 << 15})
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
		t.Fatalf("ring overwrote %d spans; raise TraceCapacity", d)
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

// TestSLOBurnRateOverHTTP walks the alert lifecycle over HTTP: healthy
// traffic stays silent, an all-bad burst fires the page alert — visible on
// every surface: /v1/slo, /v1/cluster, and /metrics — and recovery clears it.
func TestSLOBurnRateOverHTTP(t *testing.T) {
	fc := DefaultFunction()
	fc.MaxRetries = 0
	gw, err := New(Config{
		Functions:      []FunctionConfig{fc},
		Bridge:         BridgeConfig{Dilation: 0},
		SampleInterval: time.Millisecond,
		SLOObjectives:  DefaultSLOObjectives(0.99, 0.95, 50*time.Millisecond),
		// Each request burns a few ms of sim time; the base window must keep
		// the short window (base/12) wide enough to always hold bad events
		// under sustained failure, or the alert flaps.
		SLOBaseWindow: 100 * time.Millisecond,
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
	// The injector is engine state, so arming it hops onto the bridge loop.
	setFaults := func(in *faults.Injector) {
		t.Helper()
		if err := gw.Bridge().Do(ctx, func() { fn.Engine().SetFaultInjector(in) }); err != nil {
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

	// Healthy traffic stays silent: nothing firing, no alert ever transitioned.
	invokeN(40, http.StatusOK)
	for _, o := range gw.SLO().Status().Objectives {
		for _, a := range o.Alerts {
			if a.Firing || a.Transitions != 0 {
				t.Fatalf("healthy traffic raised %s/%s: %+v", o.Name, a.Severity, a)
			}
		}
	}

	setFaults(faults.New(faults.Config{Seed: 3, TrapRate: 1}))
	invokeN(40, http.StatusInternalServerError)

	resp, body := get(t, client, ts.URL+"/v1/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo status %d: %s", resp.StatusCode, body)
	}
	var st slo.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode slo status: %v", err)
	}
	if st.EvaluatedWindows == 0 {
		t.Fatalf("no windows evaluated: %s", body)
	}
	var pageFiring bool
	for _, o := range st.Objectives {
		if o.Name != "availability" {
			continue
		}
		if o.BudgetRemaining != 0 {
			t.Fatalf("all-bad traffic left budget %v", o.BudgetRemaining)
		}
		for _, a := range o.Alerts {
			if a.Severity == slo.Page && a.Firing {
				pageFiring = true
			}
		}
	}
	if !pageFiring {
		t.Fatalf("page alert not firing under 100%% errors: %s", body)
	}

	// The cluster introspection mirrors the same state.
	if _, body := get(t, client, ts.URL+"/v1/cluster"); !bytes.Contains(body, []byte(`"slo"`)) {
		t.Fatalf("/v1/cluster lacks slo state: %s", body)
	}
	// And the burn-rate gauge reaches the Prometheus exposition.
	if _, body := get(t, client, ts.URL+"/metrics"); !bytes.Contains(body, []byte("slo_burn_rate_milli")) {
		t.Fatalf("/metrics lacks slo_burn_rate_milli:\n%s", body)
	}

	// Recovery clears the page once the short burn window goes clean.
	setFaults(nil)
	for i := 0; gw.SLO().Firing(slo.Page); i++ {
		if i == 30 {
			t.Fatalf("page alert never cleared after recovery: %+v", gw.SLO().Status())
		}
		invokeN(10, http.StatusOK)
	}
}

// TestObservabilityEndpointsDisabled pins the zero-config behaviour: without
// SampleInterval the new surfaces 404 with stable error codes.
func TestObservabilityEndpointsDisabled(t *testing.T) {
	_, ts := newTestGateway(t, DefaultFunction())
	client := ts.Client()
	for _, path := range []string{"/v1/timeseries", "/v1/slo"} {
		resp, body := get(t, client, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404: %s", path, resp.StatusCode, body)
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
			t.Fatalf("%s error envelope: %v: %s", path, err, body)
		}
	}
}
