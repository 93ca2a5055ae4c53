package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"wasmcontainers/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/invoke_golden.txt")

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// wallField matches the one per-run value of an access line: the wall time,
// as text (wall=1.2ms) or JSON ("wall_ms":1.2).
var wallField = regexp.MustCompile(`(wall=)\S+|("wall_ms":)[-+.0-9e]+`)

// renderInvokeGolden drives one invoke script through ServeHTTP on a fresh
// dilation-0 gateway logging in format, and renders each response — status,
// the full header map, body — and its access line, with the wall time masked.
// The script reaches every invoke stage: completed with and without a client
// X-Request-Id, an unknown function (404), a settled failure (trap → 500) and
// an identified-stage refusal (bridge draining → 503).
func renderInvokeGolden(t *testing.T, format string) []byte {
	t.Helper()
	var logBuf bytes.Buffer
	gw, err := New(Config{
		Functions:       []FunctionConfig{DefaultFunction()},
		Bridge:          BridgeConfig{Dilation: 0},
		AccessLog:       &logBuf,
		AccessLogFormat: format,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Bridge().Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var out bytes.Buffer
	run := func(name, path, reqID string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("payload"))
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		rec := httptest.NewRecorder()
		logBuf.Reset()
		gw.ServeHTTP(rec, req)
		res := rec.Result()
		fmt.Fprintf(&out, "== %s/%s\nstatus %d\n", format, name, res.StatusCode)
		keys := make([]string, 0, len(res.Header))
		for k := range res.Header {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&out, "header %s %q\n", k, res.Header[k])
		}
		fmt.Fprintf(&out, "body %s", rec.Body.Bytes())
		fmt.Fprintf(&out, "log %s", wallField.ReplaceAll(logBuf.Bytes(), []byte("${1}${2}<masked>")))
	}

	const invokePath = "/v1/functions/request-handler"
	run("completed-client-id", invokePath, "client-abc")
	run("completed-generated-id", invokePath, "")
	run("unknown-function", "/v1/functions/nope", "")
	fn, _ := gw.Function("request-handler")
	if err := gw.Bridge().Do(ctx, func() {
		fn.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 3, TrapRate: 1}))
	}); err != nil {
		t.Fatal(err)
	}
	run("settled-trap", invokePath, "")
	if err := gw.Bridge().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	run("identified-draining", invokePath, "")
	return out.Bytes()
}

// TestInvokeGolden pins what an invoke puts on the wire and in the access
// log, byte for byte, in both log formats: header names and values, the JSON
// body, and the access line with only its wall time masked. Regenerate with
// go test -run TestInvokeGolden ./internal/gateway -update, but only after a
// deliberate output change.
func TestInvokeGolden(t *testing.T) {
	got := append(renderInvokeGolden(t, "text"), renderInvokeGolden(t, "json")...)
	golden := filepath.Join("testdata", "invoke_golden.txt")
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
		t.Fatalf("invoke output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestGeneratedRequestID pins the generated X-Request-Id to
// fmt.Sprintf("req-%08d", tid), across the eight-digit boundary.
func TestGeneratedRequestID(t *testing.T) {
	gw, err := New(Config{Functions: []FunctionConfig{DefaultFunction()}, Bridge: BridgeConfig{Dilation: 0}})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Bridge().Stop()
	for _, tid := range []int64{1, 99_999_999, 100_000_000, 123_456_789} {
		gw.reqSeq.Store(tid - 1)
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/request-handler", strings.NewReader("x"))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("tid %d: status %d body %s", tid, rec.Code, rec.Body)
		}
		if got, want := rec.Header().Get("X-Request-Id"), fmt.Sprintf("req-%08d", tid); got != want {
			t.Errorf("tid %d: X-Request-Id = %q, want %q", tid, got, want)
		}
		if got, want := rec.Header().Get("X-Trace-Tid"), fmt.Sprint(tid); got != want {
			t.Errorf("tid %d: X-Trace-Tid = %q, want %q", tid, got, want)
		}
	}
}

// TestWarmInvokeAllocs pins the host cost of a warm invoke: after warm-up,
// one request through ServeHTTP — building the request and the recorder
// included, the text access line written to a real buffer — allocates at
// most 37 times; it measures 32. The bridge request is pooled, DES events are
// values, the seven invoke headers share one slice, the body is counted
// rather than buffered, and the request id and the access line are appended
// into stack buffers; with each of those allocating, the same invoke cost 57.
func TestWarmInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count varies")
	}
	var logBuf bytes.Buffer
	gw, err := New(Config{
		Functions: []FunctionConfig{DefaultFunction()},
		Bridge:    BridgeConfig{Dilation: 0},
		AccessLog: &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Bridge().Stop()
	request := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/request-handler", strings.NewReader("payload"))
		rec := httptest.NewRecorder()
		logBuf.Reset()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || logBuf.Len() == 0 {
			t.Fatalf("warm invoke: status %d body %s, %d log bytes", rec.Code, rec.Body, logBuf.Len())
		}
	}
	for i := 0; i < 300; i++ { // past the tier-up, with tids past the small-integer cache
		request()
	}
	allocs := testing.AllocsPerRun(200, request)
	t.Logf("%.1f allocs per warm invoke", allocs)
	if allocs > 37 {
		t.Fatalf("warm invoke allocates %.1f times, want at most 37", allocs)
	}
}

// truncatedBody is an upload whose client hangs up halfway: it yields part of
// the declared body, then the error net/http reports for a short body.
type truncatedBody struct{ sent bool }

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, io.ErrUnexpectedEOF
	}
	b.sent = true
	return copy(p, "half"), nil
}

// TestInvokeBodyErrors maps the two ways reading an invoke body can fail: a
// body over the 1 MiB limit is 413 payload_too_large, and a truncated upload
// is the client's broken request, 400 bad_request — not "too large".
func TestInvokeBodyErrors(t *testing.T) {
	gw, _ := newTestGateway(t, DefaultFunction())
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		code   string
	}{
		{"over-limit", strings.NewReader(strings.Repeat("x", maxPayloadBytes+1)), http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"truncated", &truncatedBody{}, http.StatusBadRequest, "bad_request"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/request-handler", tc.body)
		req.ContentLength = 8
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if e := decodeEnvelope(t, rec.Result(), rec.Body.Bytes()); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}
}

// TestCancelledWaitDoesNotLeakResult cancels a client mid-wait on a function
// whose every invoke traps, then sends more requests to a healthy one. The
// bridge loop still owns the cancelled request and later delivers its trap
// result into it; had the submitter returned it to the pool, that stale
// result would answer some later request. Every later request must complete
// with its own X-Request-Id, body request_id and X-Trace-Tid.
func TestCancelledWaitDoesNotLeakResult(t *testing.T) {
	trapping := DefaultFunction()
	healthy := DefaultFunction()
	healthy.Module, healthy.Profile = "request-handler-vb", "wasmtime" // its own engine: no fault
	gw, err := New(Config{
		Functions: []FunctionConfig{trapping, healthy},
		Bridge:    BridgeConfig{Dilation: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Bridge().Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fn, _ := gw.Function(trapping.Module)
	if err := gw.Bridge().Do(ctx, func() {
		fn.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 1, TrapRate: 1}))
	}); err != nil {
		t.Fatal(err)
	}

	// The trapped invoke occupies its slot for milliseconds of paced virtual
	// time; cancel once the bridge has accepted it.
	clientCtx, clientCancel := context.WithCancel(ctx)
	cancelled := make(chan int)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/"+trapping.Module, strings.NewReader("x")).WithContext(clientCtx)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		cancelled <- rec.Code
	}()
	for gw.Bridge().InFlight() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	clientCancel()
	if code := <-cancelled; code != StatusClientClosedRequest {
		t.Fatalf("cancelled invoke: status %d, want %d", code, StatusClientClosedRequest)
	}

	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("later-%d", i)
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/"+healthy.Module, strings.NewReader("x"))
		req.Header.Set("X-Request-Id", id)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d after the cancel: status %d body %s", i, rec.Code, rec.Body)
		}
		var body InvokeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if got := rec.Header().Get("X-Request-Id"); got != id || body.RequestID != id {
			t.Fatalf("request %d: X-Request-Id %q, body request_id %q, want %q", i, got, body.RequestID, id)
		}
		if got, want := rec.Header().Get("X-Trace-Tid"), fmt.Sprint(i+2); got != want {
			t.Fatalf("request %d: X-Trace-Tid %q, want %q", i, got, want)
		}
	}
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := fn.Dispatcher().Stats(); st.Failed != 1 || !st.IdentityHolds() {
		t.Fatalf("trapping function: %+v, want its one request failed", st)
	}
}
