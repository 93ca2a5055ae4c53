package serve

import (
	"reflect"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// newTestPool builds a pool over the request-handler workload.
func newTestPool(t *testing.T, p engine.Profile, cfg Config) *Pool {
	t.Helper()
	return newTestPoolPolicy(t, p, cfg, exec.DefaultTierPolicy())
}

// newTestPoolPolicy is newTestPool with an explicit tier policy installed
// before compiling.
func newTestPoolPolicy(t *testing.T, p engine.Profile, cfg Config, tp exec.TierPolicy) *Pool {
	t.Helper()
	eng := engine.New(p)
	eng.SetTierPolicy(tp)
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(eng, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestPoolWarmReuseResetsMemory(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 2})
	if pool.Idle() != 2 {
		t.Fatalf("idle = %d, want 2", pool.Idle())
	}
	// Ten sequential requests through the same pool: the handler's request
	// counter must read 1 every time — any cross-request bleed makes it climb.
	for i := 0; i < 10; i++ {
		wi, ok := pool.Acquire(0)
		if !ok {
			t.Fatalf("request %d: pool dry", i)
		}
		res, err := wi.Invoke("handle", exec.I32(16))
		if err != nil {
			t.Fatal(err)
		}
		if got := exec.AsI32(res.Values[0]); got != 1 {
			t.Fatalf("request %d: counter = %d, state bled across requests", i, got)
		}
		pool.Release(wi, 0)
	}
	st := pool.Stats()
	if st.WarmHits != 10 || st.Recycled != 10 || st.ColdStarts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolSizeZeroAlwaysCold(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 0})
	if _, ok := pool.Acquire(0); ok {
		t.Fatal("size-0 pool handed out a warm instance")
	}
	wi, err := pool.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if !wi.Cold() {
		t.Fatal("cold-start instance not marked cold")
	}
	pool.Release(wi, 0)
	// Size-0 pools never retain released instances.
	if pool.Idle() != 0 {
		t.Fatalf("idle = %d after release into size-0 pool", pool.Idle())
	}
	// Only the shared artifacts remain accounted: the compiled code plus the
	// baseline image the cold start captured.
	if want := sharedBytes(pool); pool.MemoryBytes() != want {
		t.Fatalf("memory = %d after discard, want shared artifacts %d",
			pool.MemoryBytes(), want)
	}
	if pool.SharedArtifacts()[engine.ArtifactData].Bytes == 0 {
		t.Fatal("cold start did not capture a shared baseline image")
	}
	st := pool.Stats()
	if st.ColdStarts != 1 || st.Discarded != 1 || st.Recycled != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// sharedBytes sums the pool's charged shared artifacts (code, baseline
// image, tier-1 code), each accounted exactly once.
func sharedBytes(pool *Pool) int64 {
	var sum int64
	for _, a := range pool.SharedArtifacts() {
		sum += a.Bytes
	}
	return sum
}

func TestPoolMemoryAccounting(t *testing.T) {
	pool := newTestPool(t, engine.Wasmtime, Config{Size: 3})
	// Copy-on-write accounting: an idle instance costs only its engine-side
	// state — its whole linear memory aliases the shared baseline image,
	// charged once alongside the compiled code.
	per := engine.Wasmtime.WarmInstanceBytes
	if got := pool.SharedArtifacts()[engine.ArtifactData].Bytes; got != 64*1024 {
		t.Fatalf("shared baseline = %d, want one 64 KiB page", got)
	}
	shared := sharedBytes(pool) // charged exactly once
	if got := pool.MemoryBytes(); got != shared+3*per {
		t.Fatalf("pool memory = %d, want %d", got, shared+3*per)
	}
	var seen int64 = -1
	pool.SetMemoryListener(func(b int64) { seen = b })
	if seen != shared+3*per {
		t.Fatalf("listener saw %d on registration, want %d", seen, shared+3*per)
	}
	// A cold start adds a fourth instance; discarding it (pool already full
	// after re-filling) returns to the steady state.
	wi, err := pool.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if seen != shared+4*per {
		t.Fatalf("listener saw %d after cold start, want %d", seen, shared+4*per)
	}
	pool.Release(wi, 0) // idle=3 < Size? idle is 3 already -> discarded
	if seen != shared+3*per {
		t.Fatalf("listener saw %d after discard, want %d", seen, shared+3*per)
	}
	if pool.HighWater() != shared+4*per {
		t.Fatalf("high water = %d, want %d", pool.HighWater(), shared+4*per)
	}
}

func TestPoolIdleTTLEviction(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 2, IdleTTL: time.Second})
	// Instances start with lastUsed = 0; at t=2s they are both stale, and
	// the sweep an Acquire runs leaves it nothing to hand out.
	if _, ok := pool.Acquire(des.Time(2 * time.Second)); ok {
		t.Fatal("acquired an instance past its TTL")
	}
	if shared := sharedBytes(pool); pool.Idle() != 0 || pool.MemoryBytes() != shared {
		t.Fatalf("idle=%d mem=%d after eviction, want shared artifacts %d",
			pool.Idle(), pool.MemoryBytes(), shared)
	}
	if st := pool.Stats(); st.Evicted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// A recycled instance released at t=3s survives a sweep at t=3.5s.
	wi, err := pool.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(wi, des.Time(3*time.Second))
	if got, ok := pool.Acquire(des.Time(3*time.Second + 500*time.Millisecond)); !ok || got != wi {
		t.Fatalf("fresh instance evicted")
	}
	if st := pool.Stats(); st.Evicted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDispatcherRejectPolicy(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, Policy: PolicyReject, Export: "handle", Arg: 16,
	})
	var rejected, completed int
	for i := 0; i < 3; i++ {
		d.Submit(func(r RequestResult) {
			if r.Admitted {
				completed++
			} else {
				rejected++
			}
		})
	}
	eng.Run()
	// All three arrive at t=0: one admitted, two rejected on the spot.
	if completed != 1 || rejected != 2 {
		t.Fatalf("completed=%d rejected=%d", completed, rejected)
	}
	st := d.Stats()
	if st.Submitted != 3 || st.Completed != 1 || st.Rejected != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDispatcherQueuePolicy(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, QueueDepth: 2, Policy: PolicyQueue,
		QueueDeadline: time.Minute, Export: "handle", Arg: 16,
	})
	var results []RequestResult
	for i := 0; i < 4; i++ {
		d.Submit(func(r RequestResult) { results = append(results, r) })
	}
	// Queue depth 2: request 4 is rejected immediately, 2 and 3 queue.
	if d.QueueLen() != 2 {
		t.Fatalf("queue length = %d", d.QueueLen())
	}
	eng.Run()
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	st := d.Stats()
	if st.Completed != 3 || st.Rejected != 1 || st.Expired != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Queued requests waited behind the first; their wait shows in latency.
	var waited int
	for _, r := range results {
		if r.Admitted && r.QueueWait > 0 {
			waited++
		}
	}
	if waited != 2 {
		t.Fatalf("%d requests record queue wait, want 2", waited)
	}
}

func TestDispatcherQueueDeadlineExpiry(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	// WAMR warm handle(500) costs ~4 ms simulated; a 1 µs deadline expires
	// anything that had to queue at all.
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, QueueDepth: 8, Policy: PolicyQueue,
		QueueDeadline: time.Microsecond, Export: "handle", Arg: 500,
	})
	var expired int
	for i := 0; i < 3; i++ {
		d.Submit(func(r RequestResult) {
			if !r.Admitted {
				expired++
			}
		})
	}
	eng.Run()
	if st := d.Stats(); st.Completed != 1 || st.Expired != 2 || expired != 2 {
		t.Fatalf("stats = %+v (expired callbacks: %d)", st, expired)
	}
}

func TestDispatcherColdFallbackWhenPoolDry(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 0})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 4, Policy: PolicyReject, Export: "handle", Arg: 16,
	})
	var cold int
	d.Submit(func(r RequestResult) {
		if r.Cold {
			cold++
		}
	})
	eng.Run()
	if cold != 1 {
		t.Fatal("dry pool did not fall back to cold start")
	}
	if st := pool.Stats(); st.ColdStarts != 1 {
		t.Fatalf("pool stats = %+v", st)
	}
}

func TestWarmLatencyBeatsColdByTenX(t *testing.T) {
	for _, p := range engine.Profiles() {
		warm := measureOne(t, p, 4)
		cold := measureOne(t, p, 0)
		if warm.WarmLatency.N == 0 || cold.ColdLatency.N == 0 {
			t.Fatalf("%s: no samples (warm n=%d cold n=%d)", p.Name, warm.WarmLatency.N, cold.ColdLatency.N)
		}
		if warm.WarmLatency.P50*10 > cold.ColdLatency.P50 {
			t.Errorf("%s: warm p50 %.6fs not 10x under cold p50 %.6fs",
				p.Name, warm.WarmLatency.P50, cold.ColdLatency.P50)
		}
	}
}

func measureOne(t *testing.T, p engine.Profile, size int) Report {
	t.Helper()
	eng := des.NewEngine()
	pool := newTestPool(t, p, Config{Size: size})
	conc := size
	if conc == 0 {
		conc = 4
	}
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: conc, QueueDepth: 64, Policy: PolicyQueue,
		QueueDeadline: 10 * time.Second, Export: "handle", Arg: 500,
	})
	return Run(eng, d, LoadConfig{RatePerSec: 50, Duration: time.Second, Seed: 7})
}

func TestLoadRunDeterminism(t *testing.T) {
	run := func() Report {
		eng := des.NewEngine()
		pool := newTestPool(t, engine.Wasmtime, Config{Size: 2, IdleTTL: 2 * time.Second})
		d := NewDispatcher(eng, pool, DispatcherConfig{
			MaxConcurrency: 2, QueueDepth: 16, Policy: PolicyQueue,
			QueueDeadline: time.Second, Export: "handle", Arg: 200,
		})
		return Run(eng, d, LoadConfig{RatePerSec: 120, Duration: time.Second, Seed: 42})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic load run:\n%+v\n%+v", a, b)
	}
	if a.Offered == 0 || a.Dispatcher.Completed == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

func TestRunReportsPoolHighWater(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WasmEdge, Config{Size: 2})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 2, QueueDepth: 8, Policy: PolicyQueue,
		QueueDeadline: time.Second, Export: "handle", Arg: 100,
	})
	rep := Run(eng, d, LoadConfig{RatePerSec: 100, Duration: 500 * time.Millisecond, Seed: 3})
	// Steady state: shared code + shared baseline + two idle instances at
	// engine-state cost. Requests dirty pages on top, so the high-water mark
	// must clear the steady state by at least one privatized page.
	steady := sharedBytes(pool) +
		2*engine.WasmEdge.WarmInstanceBytes
	if rep.PoolHighWaterBytes < steady+64*1024 {
		t.Fatalf("high water %d below steady-state-plus-dirty-page %d",
			rep.PoolHighWaterBytes, steady+64*1024)
	}
}
