package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/workloads"
)

// RouterMode selects which admission path a test router's Submit takes.
type RouterMode int

const (
	// RouterSharded is the router as shipped: per-shard batches flushed once
	// per DES event.
	RouterSharded RouterMode = iota
	// RouterSingleQueue is the reference the batching semantics are checked
	// against: no coalescing, one Dispatcher.Submit per request in arrival
	// order, rebuilt here from Router.Lookup.
	RouterSingleQueue
)

// testRouter is a Router whose Submit bypasses batching in
// RouterSingleQueue mode; every other method is the router's own.
type testRouter struct {
	*Router
	mode RouterMode
}

func (r *testRouter) Submit(key string, tid int64, done func(RequestResult)) error {
	if r.mode == RouterSharded {
		return r.Router.Submit(key, tid, done)
	}
	d, ok := r.Lookup(key)
	if !ok {
		return ErrUnknownModule
	}
	d.SubmitBatch([]BatchItem{{TID: tid, Done: done}})
	return nil
}

// newTestRouter builds a router with n handler-variant shards (one
// dispatcher + single-instance warm pool each) on a fresh DES engine.
func newTestRouter(t *testing.T, mode RouterMode, n int, dcfg DispatcherConfig) (*des.Engine, *testRouter, []string) {
	t.Helper()
	sim := des.NewEngine()
	rt := &testRouter{Router: NewRouter(sim, RouterConfig{}), mode: mode}
	eng := engine.New(engine.WAMR)
	seen := map[[32]byte]string{}
	modules := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", workloads.HandlerVariantPrefix, i)
		bin, err := workloads.Binary(name)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := eng.Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[cm.Digest]; dup {
			t.Fatalf("variant %s shares a digest with %s — shards would collide", name, prev)
		}
		seen[cm.Digest] = name
		pool, err := NewPool(eng, cm, Config{Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := NewDispatcher(sim, pool, dcfg)
		if err := rt.Register(name, name, d); err != nil {
			t.Fatal(err)
		}
		modules = append(modules, name)
	}
	return sim, rt, modules
}

// routerDCfg is the dispatcher shape the router tests share: queued
// admission with headroom so outcomes depend on ordering, not luck.
func routerDCfg() DispatcherConfig {
	return DispatcherConfig{
		MaxConcurrency: 2,
		QueueDepth:     1 << 12,
		Policy:         PolicyQueue,
		Export:         "handle",
		Arg:            4,
	}
}

// TestRouterBatchEquivalence: the same arrival script produces identical
// per-shard outcome counters whether it runs through sharded batched
// admission or the single-queue per-request baseline — batching changes the
// constant factor, not the semantics.
func TestRouterBatchEquivalence(t *testing.T) {
	script := func(mode RouterMode) RouterStats {
		sim, rt, modules := newTestRouter(t, mode, 4, routerDCfg())
		// 300 submissions in bursts of 3 at 1ms spacing: every burst lands
		// within one DES instant on one module, so sharded mode coalesces
		// each burst into one per-shard batch.
		for i := 0; i < 100; i++ {
			at := des.Time(i) * des.Time(time.Millisecond)
			for j := 0; j < 3; j++ {
				m := modules[i%len(modules)]
				sim.At(at, func() {
					if err := rt.Submit(m, 0, nil); err != nil {
						t.Errorf("submit %s: %v", m, err)
					}
				})
			}
		}
		sim.Run()
		return rt.Stats()
	}
	sharded := script(RouterSharded)
	baseline := script(RouterSingleQueue)
	if sharded.Batches == 0 || sharded.MaxBatch < 2 {
		t.Fatalf("sharded run did not coalesce: batches=%d maxBatch=%d",
			sharded.Batches, sharded.MaxBatch)
	}
	if len(sharded.Shards) != len(baseline.Shards) {
		t.Fatalf("shard count mismatch: %d vs %d", len(sharded.Shards), len(baseline.Shards))
	}
	for i := range sharded.Shards {
		got, want := sharded.Shards[i], baseline.Shards[i]
		if got.Module != want.Module || got.Stats != want.Stats {
			t.Errorf("shard %s: sharded %+v != single-queue %+v (module %s)",
				got.Module, got.Stats, want.Stats, want.Module)
		}
	}
	if !sharded.IdentityHolds() || !baseline.IdentityHolds() {
		t.Fatalf("identity violated: sharded=%+v baseline=%+v",
			sharded.Aggregate, baseline.Aggregate)
	}
}

// TestRouterConcurrentRaceFree is the 8-goroutine contract test: producers
// funnel submissions for random shards through a channel to the one DES
// goroutine while hammering Stats scrapes, then the run drains and the
// conservation identity must hold per shard and in aggregate. Run under
// -race (the Makefile race target includes this package).
func TestRouterConcurrentRaceFree(t *testing.T) {
	const (
		producers = 8
		perProd   = 200
		nShards   = 8
	)
	sim, rt, modules := newTestRouter(t, RouterSharded, nShards, routerDCfg())
	keyCh := make(chan string, 256)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				keyCh <- modules[(p*perProd+i*7)%len(modules)]
				// Mid-flight scrapes: Stats copies the shard list under the
				// router's read lock, then reads each dispatcher through its
				// atomic accessors with no lock held.
				st := rt.Stats()
				if len(st.Shards) != nShards {
					t.Errorf("scrape saw %d shards, want %d", len(st.Shards), nShards)
					return
				}
				for _, sh := range st.Shards {
					_ = sh.QueueLen + sh.InFlight
				}
			}
		}(p)
	}
	go func() { wg.Wait(); close(keyCh) }()

	// The consumer is the DES goroutine: it alternates draining waiting keys
	// (injected at the same virtual instant, so they coalesce) with running
	// the engine dry.
	for key := range keyCh {
		if err := rt.Submit(key, 0, nil); err != nil {
			t.Fatal(err)
		}
	drain:
		for i := 0; i < 64; i++ {
			select {
			case k, ok := <-keyCh:
				if !ok {
					break drain
				}
				if err := rt.Submit(k, 0, nil); err != nil {
					t.Fatal(err)
				}
			default:
				break drain
			}
		}
		sim.Run()
	}
	rt.SetDraining(true)
	sim.Run()
	if !rt.Quiesced() {
		t.Fatal("router not quiesced after drain")
	}
	st := rt.Stats()
	if got, want := st.Aggregate.Submitted, int64(producers*perProd); got != want {
		t.Fatalf("aggregate submitted = %d, want %d", got, want)
	}
	for _, sh := range st.Shards {
		if !sh.IdentityHolds() {
			t.Errorf("shard %s identity violated: %+v", sh.Module, sh.Stats)
		}
	}
	if !st.IdentityHolds() {
		t.Fatalf("aggregate identity violated: %+v", st.Aggregate)
	}
	if st.Batches == 0 {
		t.Fatal("no batches recorded")
	}
	if st.BatchedRequests != st.Aggregate.Submitted {
		t.Fatalf("batched %d != submitted %d", st.BatchedRequests, st.Aggregate.Submitted)
	}
}

// TestRouterDeterministicStats: two dilation-0 multi-module runs with the
// same seed produce byte-identical per-shard stats.
func TestRouterDeterministicStats(t *testing.T) {
	run := func() string {
		sim, rt, modules := newTestRouter(t, RouterSharded, 16, routerDCfg())
		rep, err := RunMulti(sim, rt, MultiConfig{
			RatePerSec: 4000,
			Duration:   200 * time.Millisecond,
			Seed:       42,
			Modules:    modules,
			ZipfS:      1.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()
		if !st.IdentityHolds() {
			t.Fatalf("identity violated: %+v", st.Aggregate)
		}
		out := fmt.Sprintf("offered=%d p50=%.9f p99=%.9f\n", rep.Offered, rep.Latency.P50, rep.Latency.P99)
		for _, sh := range st.Shards {
			out += fmt.Sprintf("%s %+v q=%d f=%d\n", sh.Module, sh.Stats, sh.QueueLen, sh.InFlight)
		}
		for _, m := range rep.Modules {
			out += fmt.Sprintf("mod %s offered=%d completed=%d p99=%.9f\n", m.Module, m.Offered, m.Completed, m.Latency.P99)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two seeded dilation-0 runs diverged:\n--- run A\n%s--- run B\n%s", a, b)
	}
}

// TestRouterZipfSkew: with s=1.1 the hottest module must actually dominate —
// RunMulti's per-module breakdown is only a test of the router when real
// imbalance across shards is exercised.
func TestRouterZipfSkew(t *testing.T) {
	sim, rt, modules := newTestRouter(t, RouterSharded, 16, routerDCfg())
	rep, err := RunMulti(sim, rt, MultiConfig{
		RatePerSec: 4000,
		Duration:   250 * time.Millisecond,
		Seed:       7,
		Modules:    modules,
		ZipfS:      1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Modules) < 2 {
		t.Fatalf("expected a multi-module breakdown, got %d entries", len(rep.Modules))
	}
	hottest := rep.Modules[0]
	if hottest.Module != modules[0] {
		t.Errorf("hottest module = %s, want rank-1 %s", hottest.Module, modules[0])
	}
	share := float64(hottest.Offered) / float64(rep.Offered)
	if share < 0.15 {
		t.Errorf("hottest share = %.3f, want >= 0.15 under zipf s=1.1", share)
	}
	if rep.Dispatcher.Submitted != rep.Offered {
		t.Errorf("aggregate submitted %d != offered %d", rep.Dispatcher.Submitted, rep.Offered)
	}
}

// TestRouterRegisterIsConstantCost: registering one more module inserts into
// the shard map in place, so its cost does not grow with the shards already
// registered — a copy-on-write map allocates a whole map (~100 KiB at 2 000
// shards) per registration.
func TestRouterRegisterIsConstantCost(t *testing.T) {
	const existing, added = 2000, 100
	rt := NewRouter(des.NewEngine(), RouterConfig{})
	keys := make([]string, existing+added)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, k := range keys[:existing] {
		if err := rt.Register(k, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys[existing:] {
		if err := rt.Register(k, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perReg := (after.TotalAlloc - before.TotalAlloc) / added
	t.Logf("%d B per registration", perReg)
	if perReg >= 1024 {
		t.Fatalf("Register at %d shards allocates %d B, want under 1 KiB", existing, perReg)
	}
	if err := rt.Register(keys[0], keys[0], nil); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if got := len(rt.Modules()); got != existing+added {
		t.Fatalf("%d modules registered, want %d", got, existing+added)
	}
}

// TestRouterUnknownModule: an unregistered key is refused synchronously.
func TestRouterUnknownModule(t *testing.T) {
	sim, rt, _ := newTestRouter(t, RouterSharded, 1, routerDCfg())
	ran := false
	sim.At(0, func() {
		if err := rt.Submit("no-such-module", 0, func(RequestResult) { ran = true }); !errors.Is(err, ErrUnknownModule) {
			t.Errorf("err = %v, want ErrUnknownModule", err)
		}
	})
	sim.Run()
	if ran {
		t.Fatal("done callback ran for a refused submission")
	}
	if got := rt.Stats().Aggregate.Submitted; got != 0 {
		t.Fatalf("submitted = %d, want 0", got)
	}
}

// warmRequestAllocs is the allocations of one warm request-handler request
// (submit → flush → admission → completion) through a router whose telemetry
// is routerTele and a dispatcher whose telemetry is dispatcherTele.
func warmRequestAllocs(t *testing.T, routerTele, dispatcherTele *obs.Telemetry) float64 {
	t.Helper()
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	d := NewDispatcher(eng, pool, DispatcherConfig{MaxConcurrency: 1, Export: "handle", Arg: 64})
	d.SetObserver(dispatcherTele)
	r := NewRouter(eng, RouterConfig{})
	r.SetObserver(routerTele)
	if err := r.Register("key", "request-handler", d); err != nil {
		t.Fatal(err)
	}
	completed := 0
	done := func(res RequestResult) {
		if res.Err == nil {
			completed++
		}
	}
	request := func() {
		if err := r.Submit("key", 0, done); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 16; i++ { // past the hotness tier-up
		request()
	}
	allocs := testing.AllocsPerRun(200, request)
	if st := pool.Stats(); completed != 16+1+200 || st.ColdStarts != 0 {
		t.Fatalf("completed %d requests with %d cold starts, want 217 warm ones", completed, st.ColdStarts)
	}
	return allocs
}

// TestRouterRequestAllocsTelemetryParity pins what observing a router costs
// a request: nothing. A warm request allocates the same with the router's
// telemetry wired as without, because the per-module series it exports are
// read from the shard's DispatcherStats when someone scrapes — no
// per-request wrapper re-derives the outcome class.
func TestRouterRequestAllocsTelemetryParity(t *testing.T) {
	off := warmRequestAllocs(t, nil, nil)
	on := warmRequestAllocs(t, obs.New(obs.Config{}), nil)
	if on != off {
		t.Fatalf("%.0f allocs per request with telemetry, %.0f without", on, off)
	}
}

// TestDispatcherRequestAllocsTelemetryParity is its companion for the
// dispatcher and pool: with a live tracer (no tail sampling) a warm request
// emits its acquire, invoke and reset spans and still allocates exactly what
// an unobserved one does — span attributes are copied into the tracer's
// ring, never retained.
func TestDispatcherRequestAllocsTelemetryParity(t *testing.T) {
	off := warmRequestAllocs(t, nil, nil)
	tele := obs.New(obs.Config{})
	on := warmRequestAllocs(t, nil, tele)
	if on != off {
		t.Fatalf("%.0f allocs per request through an observed dispatcher, %.0f unobserved", on, off)
	}
	if n := len(tele.Tracer().Spans()); n < 3*200 {
		t.Fatalf("observed dispatcher recorded %d spans, want its request spans", n)
	}
}

// TestRouterResubmitFromDoneStartsFreshBatch: a refusal's done callback runs
// inside the flush that admits its batch, and a retrying client re-submits
// from there. The re-submission must start the next batch — in the shard's
// other buffer — and reach its own outcome, not be lost when the admitted
// batch's buffer is cleared and recycled. Three rounds cycle both buffers.
func TestRouterResubmitFromDoneStartsFreshBatch(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	d := NewDispatcher(eng, pool, DispatcherConfig{MaxConcurrency: 1, Policy: PolicyReject, Export: "handle", Arg: 64})
	r := NewRouter(eng, RouterConfig{})
	if err := r.Register("key", "request-handler", d); err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	var submit func(name string, retries int)
	submit = func(name string, retries int) {
		err := r.Submit("key", 0, func(res RequestResult) {
			switch {
			case res.Err == nil:
				outcomes = append(outcomes, name+" ok")
			case retries > 0:
				outcomes = append(outcomes, name+" retry")
				submit(name, retries-1)
			default:
				outcomes = append(outcomes, name+" refused")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng.At(0, func() {
		submit("a", 0)
		submit("b", 2)
	})
	eng.Run()
	want := []string{"b retry", "b retry", "b refused", "a ok"}
	if fmt.Sprint(outcomes) != fmt.Sprint(want) {
		t.Fatalf("outcomes %q, want %q", outcomes, want)
	}
	if st := r.Stats(); st.Batches != 3 || st.BatchedRequests != 4 || st.Aggregate.Submitted != 4 || !st.IdentityHolds() {
		t.Fatalf("stats %+v, want 3 batches of 4 requests", st)
	}
}
