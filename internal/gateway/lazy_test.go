package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newLazyGateway boots a dilation-0 gateway with one fixed function and
// lazy creation enabled for everything else.
func newLazyGateway(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	tmpl := DefaultFunction()
	tmpl.PoolSize = 1
	tmpl.MaxConcurrency = 2
	gw, err := New(Config{
		Functions:    []FunctionConfig{DefaultFunction()},
		LazyTemplate: &tmpl,
		Bridge:       BridgeConfig{Dilation: 0},
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

// TestLazyFunctionCreation: the first request for an unregistered handler
// variant creates its function (engine, pool, shard) on the fly; later
// requests reuse it; a genuinely unknown workload stays a 404.
func TestLazyFunctionCreation(t *testing.T) {
	gw, ts := newLazyGateway(t)
	client := &http.Client{Timeout: 30 * time.Second}

	for i := 0; i < 3; i++ {
		resp, body := invoke(t, client, ts.URL+"/v1/functions/request-handler-v7", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lazy invoke %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	if _, ok := gw.Function("request-handler-v7"); !ok {
		t.Fatal("lazy function not registered after invoke")
	}
	if len(gw.Functions()) != 2 {
		t.Fatalf("functions = %d, want 2 (fixed + lazy)", len(gw.Functions()))
	}
	if got := len(gw.Router().Modules()); got != 2 {
		t.Fatalf("router shards = %d, want 2", got)
	}

	// Unknown workloads still 404 with the stable error code.
	resp, body := invoke(t, client, ts.URL+"/v1/functions/no-such-module", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown module: status %d body %s", resp.StatusCode, body)
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "unknown_function" {
		t.Fatalf("unknown module error body = %s (err %v)", body, err)
	}

	// The per-module labeled router counters are live on /metrics.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(mbody)
	if !strings.Contains(text, `router_completed_total{module="request-handler-v7"} 3`) {
		t.Fatalf("per-module router counter missing from /metrics:\n%s", grepLines(text, "router_"))
	}
	if !strings.Contains(text, `router_shards 2`) {
		t.Fatalf("router_shards gauge missing:\n%s", grepLines(text, "router_"))
	}

	// The cluster introspection reports both shards and the batch counters.
	cresp, err := client.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st ClusterStatus
	if err := json.NewDecoder(cresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if st.Router.Shards != 2 {
		t.Fatalf("cluster router shards = %d, want 2", st.Router.Shards)
	}
	if st.Router.Batches == 0 || st.Router.BatchedRequests < 3 {
		t.Fatalf("batch accounting empty: %+v", st.Router)
	}
}

// TestLazyDisabledStill404s: without a template, unregistered modules are
// refused — the pre-router behaviour.
func TestLazyDisabledStill404s(t *testing.T) {
	_, ts := newTestGateway(t, DefaultFunction())
	client := &http.Client{Timeout: 10 * time.Second}
	resp, _ := invoke(t, client, ts.URL+"/v1/functions/request-handler-v7", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestLazyTemplateShapesEveryFunction: a gateway with a lazy template and no
// fixed functions starts empty, so the first request for request-handler
// creates it from the template (wasmtime, pool 8), not from DefaultFunction's
// wamr / pool 4.
func TestLazyTemplateShapesEveryFunction(t *testing.T) {
	tmpl := DefaultFunction()
	tmpl.Profile = "wasmtime"
	tmpl.PoolSize = 8
	gw, err := New(Config{LazyTemplate: &tmpl, Bridge: BridgeConfig{Dilation: 0}})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	defer func() {
		ts.Close()
		gw.Bridge().Stop()
	}()
	if n := len(gw.Functions()); n != 0 {
		t.Fatalf("functions before any request = %d, want 0", n)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	if resp, body := invoke(t, client, ts.URL+"/v1/functions/request-handler", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("lazy invoke: status %d body %s", resp.StatusCode, body)
	}
	_, body := get(t, client, ts.URL+"/v1/cluster")
	var st ClusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Functions) != 1 {
		t.Fatalf("/v1/cluster functions = %+v, want one", st.Functions)
	}
	if f := st.Functions[0]; f.Module != "request-handler" || f.Profile != "wasmtime" || f.PoolSize != 8 {
		t.Fatalf("/v1/cluster reports %s on %s with pool %d, want request-handler on wasmtime with pool 8",
			f.Module, f.Profile, f.PoolSize)
	}
}

// grepLines filters text to lines containing sub, for failure messages.
func grepLines(text, sub string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestFunctionsShareEngineAndCache: functions on one profile — static or
// lazily created — run on the server's one engine for that profile, compile
// into the server's one module cache, and /metrics reads that cache once; a
// second profile gets its own engine over the same cache.
func TestFunctionsShareEngineAndCache(t *testing.T) {
	a, b := DefaultFunction(), DefaultFunction()
	b.Module = "request-handler-vb"
	tmpl := DefaultFunction()
	gw, err := New(Config{
		Functions:    []FunctionConfig{a, b},
		LazyTemplate: &tmpl,
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
	client := &http.Client{Timeout: 30 * time.Second}
	for _, m := range []string{"request-handler-vc", "request-handler-vd"} {
		if resp, body := invoke(t, client, ts.URL+"/v1/functions/"+m, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("lazy invoke %s: status %d body %s", m, resp.StatusCode, body)
		}
	}

	fns := gw.Functions()
	if len(fns) != 4 {
		t.Fatalf("functions = %d, want 4", len(fns))
	}
	eng := fns[0].Engine()
	for _, fn := range fns {
		if fn.Engine() != eng {
			t.Fatalf("%s runs on its own engine", fn.Module())
		}
	}
	if st := eng.CacheStats(); st.Entries != 4 || st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("cache after four modules: %+v, want 4 entries from 4 misses", st)
	}
	_, body := get(t, client, ts.URL+"/metrics")
	if got := grepLines(string(body), "modcache_misses_total"); !strings.Contains(got, "modcache_misses_total 4") {
		t.Fatalf("/metrics: %s, want modcache_misses_total 4", got)
	}

	gw.regMu.Lock()
	other, err := gw.engineFor("wasmtime")
	again, _ := gw.engineFor("wasmtime")
	gw.regMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if other == eng || other != again {
		t.Fatal("a second profile must get one engine of its own")
	}
	if st := other.CacheStats(); st.Entries != 4 {
		t.Fatalf("second engine's cache holds %d entries, want the shared cache's 4", st.Entries)
	}
}
