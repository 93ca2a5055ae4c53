package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/workloads"
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

// TestLazyDeployConcurrentRaceFree: eight clients lazily deploy handler
// variants — some only they name, some every client names — while scrapers
// read /v1/cluster, /metrics and Functions(). Every variant is registered
// exactly once: one function and one router shard per module. After a drain
// every function's admission identity holds and the dispatchers saw every
// request. Run under -race.
func TestLazyDeployConcurrentRaceFree(t *testing.T) {
	gw, ts := newLazyGateway(t)
	const clients, perClient = 8, 12
	statuses := make(chan int, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perClient; i++ {
				module := fmt.Sprintf("request-handler-vc%d-%d", c, i/2)
				if i%2 == 1 {
					module = fmt.Sprintf("request-handler-vshared%d", i/2)
				}
				resp, err := client.Post(ts.URL+"/v1/functions/"+module, "text/plain", strings.NewReader("x"))
				if err != nil {
					t.Errorf("invoke %s: %v", module, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				statuses <- resp.StatusCode
			}
		}(c)
	}
	stop, scrapeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scrapeDone)
		client := &http.Client{Timeout: 30 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range []string{"/v1/cluster", "/metrics"} {
				resp, err := client.Get(ts.URL + p)
				if err != nil {
					t.Errorf("scrape %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			for _, fn := range gw.Functions() {
				_ = fn.Dispatcher().Stats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scrapeDone
	close(statuses)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	ok := 0
	for s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Errorf("unexpected status %d", s)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	fns := gw.Functions()
	// The fixed request-handler, six own variants per client, six shared.
	if want := 1 + clients*perClient/2 + perClient/2; len(fns) != want {
		t.Fatalf("%d functions registered, want %d", len(fns), want)
	}
	modules := gw.Router().Modules()
	if len(modules) != len(fns) {
		t.Fatalf("router has %d shards for %d functions", len(modules), len(fns))
	}
	var submitted int64
	for i, fn := range fns {
		if modules[i] != fn.Module() {
			t.Fatalf("shard %d is %s, function %s", i, modules[i], fn.Module())
		}
		st := fn.Dispatcher().Stats()
		if !st.IdentityHolds() {
			t.Errorf("%s: identity broken after drain: %+v", fn.Module(), st)
		}
		submitted += st.Submitted
	}
	if submitted != clients*perClient {
		t.Fatalf("dispatchers saw %d requests, want %d", submitted, clients*perClient)
	}
}

// TestLazyDeployAllocs guards the host cost of a lazy deploy: a request naming
// a never-seen variant, through ServeHTTP, allocates at most 107 times (about
// 104; 129 before the encode, decode, validate, precompile and instantiate
// layers were trimmed, TestDeployAllocLedger). A variant is a copy of the
// assembled handler and registration inserts in place; re-assembling the
// handler's text per deploy costs ~350 more. Filling the one-instance pool
// cost 12 of them with ten allocations per warm instance and costs 4 with
// two.
func TestLazyDeployAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count varies")
	}
	gw, _ := newLazyGateway(t)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/functions/request-handler-va%d", i), strings.NewReader("x"))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("lazy deploy %d: status %d body %s", i, rec.Code, rec.Body)
		}
	})
	t.Logf("%.0f allocs per lazy deploy", allocs)
	if allocs > 107 {
		t.Fatalf("lazy deploy allocates %.0f times, want at most 107", allocs)
	}
}

// TestLazyDeployRefusedKeyRetiresReplica: a lazy deploy whose digest the
// router already holds as a shard key fails, and the replica built for it
// leaves its node — the node's used memory and process count return to
// their pre-deploy figures — and no function is registered under the name.
func TestLazyDeployRefusedKeyRetiresReplica(t *testing.T) {
	gw, _ := newLazyGateway(t)
	name := workloads.HandlerVariantPrefix + "taken"
	bin, err := workloads.Binary(name)
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := gw.Function("request-handler")
	if !ok {
		t.Fatal("no request-handler function")
	}
	if err := gw.Router().Register(fmt.Sprintf("%x", sha256.Sum256(bin)), "squatter", fn.Dispatcher()); err != nil {
		t.Fatal(err)
	}
	node := gw.cluster.Nodes[0].OS
	read := func() (used int64, procs int) {
		if err := gw.Bridge().Do(context.Background(), func() {
			used, procs = node.UsedBeyondIdle(), node.NumProcesses()
		}); err != nil {
			t.Fatal(err)
		}
		return used, procs
	}
	usedBefore, procsBefore := read()

	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/functions/"+name, strings.NewReader("x")))
	if rec.Code == http.StatusOK {
		t.Fatalf("deploy under a refused key answered 200: %s", rec.Body)
	}
	if _, ok := gw.Function(name); ok {
		t.Fatalf("%s is registered after its deploy failed", name)
	}
	if used, procs := read(); used != usedBefore || procs != procsBefore {
		t.Fatalf("after the refused deploy the node uses %d bytes in %d processes, want %d in %d",
			used, procs, usedBefore, procsBefore)
	}
}
