package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/serve"
)

// newTestGateway boots a gateway at dilation 0 (deterministic, unpaced) and
// registers cleanup that stops the bridge loop.
func newTestGateway(t *testing.T, fc FunctionConfig) (*Server, *httptest.Server) {
	t.Helper()
	gw, err := New(Config{
		Functions: []FunctionConfig{fc},
		Bridge:    BridgeConfig{Dilation: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Bridge().Stop()
	})
	return gw, ts
}

func invoke(t *testing.T, client *http.Client, url string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
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

// TestConcurrentServingConservation is the DES-bridge stress test: 8
// concurrent clients hammer one function (tight queue so real rejections
// occur), observers scrape the introspection surfaces mid-flight, and after
// a graceful drain the dispatcher's admission identity
// Submitted == Completed + Rejected + Expired + Failed must balance exactly.
// Run under -race this also proves the bridge upholds the DES threading
// contract against truly concurrent HTTP goroutines.
func TestConcurrentServingConservation(t *testing.T) {
	fc := DefaultFunction()
	fc.MaxConcurrency = 2
	fc.PoolSize = 2
	fc.QueueDepth = 4
	fc.QueueDeadline = 10 * time.Millisecond // simulated: force some expiries
	gw, ts := newTestGateway(t, fc)

	const clients, perClient = 8, 20
	statuses := make(chan int, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perClient; i++ {
				resp, _ := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
				statuses <- resp.StatusCode
			}
		}()
	}
	// Scrape every read-only surface while the load runs; under -race this
	// is what catches introspection touching loop-owned state directly.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		client := &http.Client{Timeout: 30 * time.Second}
		for i := 0; i < 10; i++ {
			for _, p := range []string{"/v1/cluster", "/metrics", "/healthz", "/v1/trace"} {
				resp, err := client.Get(ts.URL + p)
				if err != nil {
					t.Errorf("scrape %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	<-scrapeDone
	close(statuses)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	counts := map[int]int{}
	total := 0
	for s := range statuses {
		counts[s]++
		total++
		switch s {
		case http.StatusOK, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Errorf("unexpected status %d", s)
		}
	}
	if total != clients*perClient {
		t.Fatalf("responses = %d, want %d", total, clients*perClient)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatal("no request succeeded")
	}

	fn, _ := gw.Function(fc.Module)
	st := fn.Dispatcher().Stats()
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("conservation identity broken after drain: %+v", st)
	}
	if st.Submitted == 0 {
		t.Fatal("dispatcher saw no traffic")
	}
	t.Logf("statuses=%v stats=%+v", counts, st)
}

// TestDeterministicAtDilationZero: the same sequential request script against
// two fresh gateways at dilation 0 must produce byte-identical dispatcher
// stats and identical simulated latencies — the property the bench harness
// and regression baselines rely on.
func TestDeterministicAtDilationZero(t *testing.T) {
	script := func() (serve.DispatcherStats, []string) {
		fc := DefaultFunction()
		gw, ts := newTestGateway(t, fc)
		client := &http.Client{Timeout: 30 * time.Second}
		var lats []string
		for i := 0; i < 12; i++ {
			resp, _ := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
			lats = append(lats, resp.Header.Get("X-Sim-Latency-Ms"))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		fn, _ := gw.Function(fc.Module)
		return fn.Dispatcher().Stats(), lats
	}
	st1, lat1 := script()
	st2, lat2 := script()
	if st1 != st2 {
		t.Fatalf("stats diverged:\n  run1 %+v\n  run2 %+v", st1, st2)
	}
	for i := range lat1 {
		if lat1[i] != lat2[i] {
			t.Fatalf("latency %d diverged: %s vs %s", i, lat1[i], lat2[i])
		}
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-Id is echoed back,
// its numeric companion X-Trace-Tid names the request's span track, and the
// tracer really recorded spans on that track.
func TestRequestIDPropagation(t *testing.T) {
	fc := DefaultFunction()
	gw, ts := newTestGateway(t, fc)
	client := &http.Client{Timeout: 30 * time.Second}

	resp, _ := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module,
		map[string]string{"X-Request-Id": "trace-me-42"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Fatalf("X-Request-Id = %q, want echo of trace-me-42", got)
	}
	tid, err := strconv.ParseInt(resp.Header.Get("X-Trace-Tid"), 10, 64)
	if err != nil || tid <= 0 {
		t.Fatalf("X-Trace-Tid = %q, want positive integer", resp.Header.Get("X-Trace-Tid"))
	}

	// A second request without the header gets a generated id tied to its tid.
	resp2, _ := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
	tid2, _ := strconv.ParseInt(resp2.Header.Get("X-Trace-Tid"), 10, 64)
	wantID := fmt.Sprintf("req-%08d", tid2)
	if got := resp2.Header.Get("X-Request-Id"); got != wantID {
		t.Fatalf("generated X-Request-Id = %q, want %q", got, wantID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	found := false
	for _, sp := range gw.Telemetry().Tracer().Spans() {
		if sp.TID == tid {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no span recorded on trace track %d", tid)
	}
}

// TestShutdownRefusesNewWork: a draining gateway answers 503 with the
// "draining" error code on new invokes and flips /healthz to 503.
func TestShutdownRefusesNewWork(t *testing.T) {
	fc := DefaultFunction()
	gw, ts := newTestGateway(t, fc)
	client := &http.Client{Timeout: 30 * time.Second}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("invoke while draining: status %d, want 503", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshal error body: %v", err)
	}
	if env.Error.Code != "draining" {
		t.Fatalf("error code = %q, want draining", env.Error.Code)
	}
	hr, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hr.StatusCode)
	}
}

// TestUnknownFunction404: an unregistered module is a 404 with a stable code.
func TestUnknownFunction404(t *testing.T) {
	_, ts := newTestGateway(t, DefaultFunction())
	client := &http.Client{Timeout: 30 * time.Second}
	resp, body := invoke(t, client, ts.URL+"/v1/functions/no-such-module", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unknown_function" {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

// TestMetricsLiveScrape: after traffic, /metrics exposes populated
// dispatcher histograms and the gateway's own HTTP counters — the same
// registry the offline harness snapshots, scraped mid-flight.
func TestMetricsLiveScrape(t *testing.T) {
	fc := DefaultFunction()
	_, ts := newTestGateway(t, fc)
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < 3; i++ {
		resp, _ := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
	for _, want := range []string{"dispatch_latency_ns_count", "gateway_http_requests_total", "dispatch_completed_total 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestClusterIntrospection: /v1/cluster reports the function's pool and
// dispatcher state consistently with the traffic it served.
func TestClusterIntrospection(t *testing.T) {
	fc := DefaultFunction()
	_, ts := newTestGateway(t, fc)
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < 5; i++ {
		invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
	}
	resp, err := client.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st ClusterStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) == 0 || len(st.Functions) != 1 {
		t.Fatalf("nodes=%d functions=%d", len(st.Nodes), len(st.Functions))
	}
	f := st.Functions[0]
	if f.Module != fc.Module {
		t.Fatalf("module = %q", f.Module)
	}
	if f.Stats.Completed != 5 {
		t.Fatalf("completed = %d, want 5", f.Stats.Completed)
	}
	// The pool's charge reaches the node split in two: shared artifacts
	// (code, baseline image — one per-node copy) plus the page-rounded
	// private remainder, which together cover the raw pool bytes.
	if f.PoolMemoryBytes <= 0 || f.ChargedBytes+f.SharedBytes < f.PoolMemoryBytes {
		t.Fatalf("pool memory %d not charged to node (private %d + shared %d)",
			f.PoolMemoryBytes, f.ChargedBytes, f.SharedBytes)
	}
	if f.SharedBytes <= 0 {
		t.Fatal("no shared artifacts charged to the node")
	}
	if f.Node == "" {
		t.Fatal("function reports no placement node")
	}
	if !st.Nodes[0].Alive {
		t.Fatal("healthy node reported dead")
	}
	if st.Nodes[0].MemUsedBytes <= 0 {
		t.Fatal("node reports no memory in use")
	}
}

// TestContainerLifecycle drives the Docker-shaped surface end to end:
// create → start → list → stats, against the simulated cluster.
func TestContainerLifecycle(t *testing.T) {
	_, ts := newTestGateway(t, DefaultFunction())
	client := &http.Client{Timeout: 30 * time.Second}

	resp, err := client.Post(ts.URL+"/v1/containers/create?name=web",
		"application/json", strings.NewReader(`{"Runtime":"crun-wamr"}`))
	if err != nil {
		t.Fatal(err)
	}
	var created ContainerCreateResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d id %q", resp.StatusCode, created.ID)
	}

	// Before start the pod is created, not running: plain list hides it.
	var list []ContainerSummary
	getJSON(t, client, ts.URL+"/v1/containers/json", &list)
	if len(list) != 0 {
		t.Fatalf("pre-start list = %d entries, want 0", len(list))
	}
	getJSON(t, client, ts.URL+"/v1/containers/json?all=1", &list)
	if len(list) != 1 || list[0].State != "created" {
		t.Fatalf("pre-start all list = %+v", list)
	}

	resp, err = client.Post(ts.URL+"/v1/containers/"+created.ID+"/start", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("start: status %d, want 204", resp.StatusCode)
	}

	getJSON(t, client, ts.URL+"/v1/containers/json", &list)
	if len(list) != 1 || list[0].State != "running" {
		t.Fatalf("post-start list = %+v", list)
	}

	var stats ContainerStats
	getJSON(t, client, ts.URL+"/v1/containers/"+created.ID+"/stats", &stats)
	if stats.ID != created.ID || stats.MemoryStats.Usage <= 0 {
		t.Fatalf("stats = %+v, want positive memory usage", stats)
	}

	resp, err = client.Post(ts.URL+"/v1/containers/nope/start", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("start unknown: status %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestDilationPacesWallClock: at dilation > 0 a completion event at virtual
// time T fires no earlier than T*dilation wall nanoseconds after start, so
// the observed wall latency must be at least the dilated simulated latency.
func TestDilationPacesWallClock(t *testing.T) {
	const dilation = 5.0
	gw, err := New(Config{
		Functions: []FunctionConfig{DefaultFunction()},
		Bridge:    BridgeConfig{Dilation: dilation},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Bridge().Stop()
	})
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	resp, _ := invoke(t, client, ts.URL+"/v1/functions/request-handler", nil)
	wall := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	simMs, err := strconv.ParseFloat(resp.Header.Get("X-Sim-Latency-Ms"), 64)
	if err != nil {
		t.Fatalf("X-Sim-Latency-Ms = %q", resp.Header.Get("X-Sim-Latency-Ms"))
	}
	// Timers never fire early: the wall time must cover the dilated
	// simulated latency (minus a small measurement epsilon).
	minWall := time.Duration(simMs*dilation*float64(time.Millisecond)) - time.Millisecond
	if wall < minWall {
		t.Fatalf("wall latency %s < dilated sim latency %s (sim %.3fms × %g)",
			wall, minWall, simMs, dilation)
	}
}

// TestNodeFailover: POST /v1/cluster/nodes/{node}/fail kills the node
// hosting a function, re-homes its memory charge to a survivor, and keeps
// the function serving across the failure.
func TestNodeFailover(t *testing.T) {
	fc := DefaultFunction()
	gw, err := New(Config{
		Functions:    []FunctionConfig{fc},
		Bridge:       BridgeConfig{Dilation: 0},
		ClusterNodes: 3,
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
	client := &http.Client{Timeout: 30 * time.Second}
	invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)

	clusterStatus := func() ClusterStatus {
		resp, err := client.Get(ts.URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var st ClusterStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	home := clusterStatus().Functions[0].Node
	if home == "" {
		t.Fatal("function reports no node")
	}

	resp, err := client.Post(ts.URL+"/v1/cluster/nodes/"+home+"/fail", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fr NodeFailResponse
	err = json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail returned %d", resp.StatusCode)
	}
	if len(fr.Rehomed) != 1 || fr.Rehomed[0] != fc.Module {
		t.Fatalf("rehomed = %v, want [%s]", fr.Rehomed, fc.Module)
	}

	st := clusterStatus()
	for _, n := range st.Nodes {
		if n.Name == home && n.Alive {
			t.Fatalf("node %s still reported alive after fail", home)
		}
	}
	f := st.Functions[0]
	if f.Node == home || f.Node == "" {
		t.Fatalf("function still homed on %q after node death", f.Node)
	}
	if f.ChargedBytes+f.SharedBytes < f.PoolMemoryBytes {
		t.Fatalf("re-homed charge %d+%d does not cover pool %d",
			f.ChargedBytes, f.SharedBytes, f.PoolMemoryBytes)
	}
	// The function keeps serving across the failure.
	r2, _ := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("invoke after failover: %d", r2.StatusCode)
	}
	// Idempotent on a dead node; 404 on an unknown one.
	r3, err := client.Post(ts.URL+"/v1/cluster/nodes/"+home+"/fail", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("second fail returned %d, want 200", r3.StatusCode)
	}
	r4, err := client.Post(ts.URL+"/v1/cluster/nodes/worker-99/fail", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node fail returned %d, want 404", r4.StatusCode)
	}

	// The one-node case — the daemon's default -nodes 1: failing the only live
	// node is not "unknown node". There is no survivor to re-home to, so the
	// fail call and a lazy create both answer 503 no_live_node, while the
	// function already placed keeps serving from its pool.
	t.Run("last node", func(t *testing.T) {
		fc := DefaultFunction()
		gw, err := New(Config{
			Functions:    []FunctionConfig{fc},
			LazyTemplate: &fc,
			Bridge:       BridgeConfig{Dilation: 0},
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
		fn, _ := gw.Function(fc.Module)

		wantNoLiveNode := func(what string, resp *http.Response, body []byte) {
			t.Helper()
			var e struct {
				Error APIError `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("%s: decode envelope: %v: %s", what, err, body)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != "no_live_node" {
				t.Fatalf("%s: %d %q, want 503 no_live_node", what, resp.StatusCode, e.Error.Code)
			}
		}
		// Twice: the second call finds the node already dead and must agree.
		for i := 0; i < 2; i++ {
			resp, body := invoke(t, client, ts.URL+"/v1/cluster/nodes/"+fn.Node()+"/fail", nil)
			wantNoLiveNode(fmt.Sprintf("fail last node (call %d)", i), resp, body)
		}
		resp, body := invoke(t, client, ts.URL+"/v1/functions/request-handler-v1", nil)
		wantNoLiveNode("lazy create", resp, body)
		if resp, body := invoke(t, client, ts.URL+"/v1/functions/"+fc.Module, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke on the surviving pool: %d: %s", resp.StatusCode, body)
		}
	})
}
