package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// ledgerSink and binSink keep each row's product live, as its caller would;
// an encoding gets its own typed sink because boxing a slice allocates.
var (
	ledgerSink any
	binSink    []byte
)

// TestDeployAllocLedger prices a cold deploy layer by layer: each row is one
// layer's allocations for a fresh request-handler variant (a 160-byte
// module), run in the order a lazy deploy runs them, and the last row is the
// whole deploy through ServeHTTP with the benchmark's function shape (pool 4,
// concurrency 4). A row's max is its pinned reading; a layer that starts
// allocating more fails here, named, before it shows in the end-to-end row.
// The registration rows are AttachWarmPool plus the attachment's
// SetObserver; NewReplica around an empty pool (the pool record is one of
// its allocations, the attach row's are in it too, and new-pool-4 prices the
// fill); and Router.Register plus the first scrape that names the shard's
// series (one registry Read, which allocates nothing of its own).
// The layer rows run on the test goroutine and are pinned at their readings;
// the lazy-deploy row also runs the bridge goroutine and sync.Pool, so it is
// pinned, like TestLazyDeployAllocs, at its reading (78) + 3. Before the
// build and compile layers were trimmed the rows read 3, 14, 15, 5, 8, 36,
// 3, 14 and 138; before the registration layers were, 3, 1, 9, 1, 6, 24, 2,
// 10, 10, 19, 9 and 109; before Read bound its emit function once and the
// warm invoke path was trimmed, router-register read 3 and lazy-deploy 85.
func TestDeployAllocLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count varies")
	}
	const runs = 50
	// AllocsPerRun calls each row runs+1 times; a row that must see a fresh
	// module each time indexes these.
	names := make([]string, runs+1)
	bins := make([][]byte, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("%sledger%d", workloads.HandlerVariantPrefix, i)
		b, err := workloads.Binary(names[i])
		if err != nil {
			t.Fatal(err)
		}
		bins[i] = b
	}
	variant, err := workloads.Module(names[0])
	if err != nil {
		t.Fatal(err)
	}
	bin := bins[0]
	decoded, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WAMR)
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Instantiate(cm); err != nil { // publishes the baseline image
		t.Fatal(err)
	}
	missEng := engine.New(engine.WAMR)

	// The registration rows place on one node of their own cluster and
	// observe into telemetry of their own, as newFunction does.
	kc, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	node := kc.Nodes[0]
	regTele := obs.New(obs.Config{})
	sim := des.NewEngine()
	fc := DefaultFunction()
	dcfg := serve.DispatcherConfig{
		MaxConcurrency: fc.MaxConcurrency, QueueDepth: fc.QueueDepth, Policy: serve.PolicyQueue,
		QueueDeadline: fc.QueueDeadline, Export: fc.Export, Arg: fc.Arg,
	}
	shardPool, err := serve.NewPool(eng, cm, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	shardDisp := serve.NewDispatcher(sim, shardPool, dcfg)
	rt := serve.NewRouter(sim, serve.RouterConfig{})
	rt.SetObserver(regTele)

	tmpl := DefaultFunction()
	tmpl.PoolSize, tmpl.MaxConcurrency = 4, 4
	gw, err := New(Config{
		Functions:    []FunctionConfig{DefaultFunction()},
		LazyTemplate: &tmpl,
		Bridge:       BridgeConfig{Dilation: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	t.Cleanup(func() { gw.Bridge().Stop() })

	must := func(v any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ledgerSink = v
	}
	rows := []struct {
		name string
		max  float64
		run  func(i int)
	}{
		{"variant", 1, func(i int) { must(workloads.Module(names[i])) }},
		{"encode", 1, func(int) { binSink = wasm.Encode(variant) }},
		{"decode", 9, func(int) { must(wasm.Decode(bin)) }},
		{"validate", 1, func(int) { must(nil, wasm.Validate(decoded)) }},
		{"precompile", 6, func(int) { must(exec.Precompile(decoded)) }},
		{"compile-miss", 20, func(i int) { must(missEng.Compile(bins[i])) }},
		{"instantiate", 2, func(int) { must(eng.Instantiate(cm)) }},
		{"new-pool-4", 10, func(int) { must(serve.NewPool(eng, cm, serve.Config{Size: 4})) }},
		{"attach-warm-pool", 7, func(i int) {
			att, err := node.AttachWarmPool("a" + names[i])
			must(att, err)
			att.SetObserver(regTele)
		}},
		{"new-replica", 11, func(i int) {
			must(cluster.NewReplica(sim, eng, cm, node, "r"+names[i], serve.Config{}, dcfg, regTele))
		}},
		{"router-register", 2, func(i int) {
			must(nil, rt.Register(names[i], names[i], shardDisp))
			regTele.Metrics().Read(nil, nil)
		}},
		{"lazy-deploy", 81, func(i int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/functions/"+names[i], strings.NewReader("x"))
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("lazy deploy of %s: status %d body %s", names[i], rec.Code, rec.Body)
			}
		}},
	}
	for _, row := range rows {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			row.run(i)
			i++
		})
		t.Logf("%-16s %4.0f allocs (max %.0f)", row.name, allocs, row.max)
		if allocs > row.max {
			t.Errorf("%s allocates %.0f times, want at most %.0f", row.name, allocs, row.max)
		}
	}
}

// TestWarmRequestAllocLedger prices a warm invoke layer by layer, from the
// outside in; each row includes the rows below it. handler is one request
// through ServeHTTP with a text access line written to a buffer (the
// request and recorder are built before the count); headers-and-body is
// what the handler does for a completed invoke around the submission: count
// the request body, then write the headers and the JSON body through the
// response writer; bridge is one SubmitRouted through the running bridge
// loop, its router shard, dispatcher and guest; dispatcher is one Submit
// and Run on a DES engine of its own; guest-invoke is one Acquire, Invoke
// and Release of a warm instance. A layer that starts allocating more fails
// here by name. Rows that run on the test goroutine are pinned at their
// readings; handler and bridge also run the bridge goroutine and sync.Pool,
// so they are pinned at their readings + 2. What is left is net/http's and
// the recorder's (the route match, the header snapshot, the body buffer),
// the header values' slice and their one string, and the exec result slice.
// Before the invoke path was trimmed the rows read 18, 11, 3, 3 and 1: a
// boxed InvokeResponse, MaxBytesReader, Content-Type's Header.Set slice,
// the tid, latency and request-id strings, the statusWriter, the access
// line's string, and the dispatcher's inflight record and completion
// closure.
func TestWarmRequestAllocLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count varies")
	}
	const runs = 200
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
	t.Cleanup(func() { gw.Bridge().Stop() })
	fn, _ := gw.Function("request-handler")
	const path = "/v1/functions/request-handler"
	// AllocsPerRun calls each row runs+1 times; the rows that consume a
	// request and a recorder index these, built before the count.
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	fresh := func() {
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, path, strings.NewReader("payload"))
			recs[i] = httptest.NewRecorder()
		}
	}
	for i := 0; i < 300; i++ { // past the tier-up, with tids past the small-integer cache
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("payload"))
		gw.ServeHTTP(httptest.NewRecorder(), req)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The dispatcher and guest rows run the default function's shape on a
	// pool, dispatcher and telemetry of their own.
	fc := DefaultFunction()
	bin, err := workloads.Binary(fc.Module)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WAMR)
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: fc.PoolSize})
	if err != nil {
		t.Fatal(err)
	}
	sim := des.NewEngine()
	disp := serve.NewDispatcher(sim, pool, serve.DispatcherConfig{
		MaxConcurrency: fc.MaxConcurrency, QueueDepth: fc.QueueDepth, Policy: serve.PolicyQueue,
		QueueDeadline: fc.QueueDeadline, Export: fc.Export, Arg: fc.Arg,
	})
	disp.SetObserver(obs.New(obs.Config{}))
	var dispErr error
	done := func(res serve.RequestResult) { dispErr = res.Err }
	args := []exec.Value{exec.I32(fc.Arg)}
	invokeWarm := func() {
		wi, ok := pool.Acquire(0)
		if !ok {
			t.Fatal("warm pool empty")
		}
		_, err := wi.Invoke(fc.Export, args...)
		pool.Release(wi, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		invokeWarm()
		disp.Submit(done)
		sim.Run()
	}

	completed := invokeRecord{stage: invokeCompleted, tid: 301,
		res: serve.RequestResult{Admitted: true, Attempts: 1, Latency: 1234567}}
	sw := &statusWriter{}
	rows := []struct {
		name string
		max  float64
		run  func(i int)
	}{
		{"handler", 11, func(i int) {
			logBuf.Reset()
			gw.ServeHTTP(recs[i], reqs[i])
			if recs[i].Code != http.StatusOK || logBuf.Len() == 0 {
				t.Fatalf("warm invoke: status %d body %s", recs[i].Code, recs[i].Body)
			}
		}},
		{"headers-and-body", 7, func(i int) {
			sw.ResponseWriter, sw.status, sw.invoke = recs[i], http.StatusOK, completed
			n, err := countBody(reqs[i].Body, sw.scratch[:])
			if err != nil {
				t.Fatal(err)
			}
			writeInvoke(sw, fc.Module, n)
		}},
		{"bridge", 3, func(i int) {
			res, err := gw.Bridge().SubmitRouted(ctx, gw.Router(), fn.key, int64(1000+i))
			if err != nil || res.Err != nil {
				t.Fatalf("bridge submit: %v, %v", err, res.Err)
			}
		}},
		{"dispatcher", 1, func(int) {
			disp.Submit(done)
			sim.Run()
			if dispErr != nil {
				t.Fatal(dispErr)
			}
		}},
		{"guest-invoke", 1, func(int) { invokeWarm() }},
	}
	for _, row := range rows {
		fresh()
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			row.run(i)
			i++
		})
		t.Logf("%-16s %4.1f allocs (max %.0f)", row.name, allocs, row.max)
		if allocs > row.max {
			t.Errorf("%s allocates %.1f times, want at most %.0f", row.name, allocs, row.max)
		}
	}
}
