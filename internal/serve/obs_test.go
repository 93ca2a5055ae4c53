package serve

import (
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/obs"
)

// runObservedLoad wires a telemetry instance (on the DES clock) into a
// dispatcher and drives one congested load run: pool smaller than the
// concurrency limit, queueing enabled, so warm hits, cold starts, queue
// waits, invokes, and resets all occur.
func runObservedLoad(t *testing.T) (*obs.Telemetry, Report) {
	t.Helper()
	eng := des.NewEngine()
	tele := obs.New(obs.Config{})
	tele.Tracer().SetClock(func() int64 { return int64(eng.Now()) })
	pool := newTestPool(t, engine.WAMR, Config{Size: 2})
	pool.Engine().SetObserver(tele)
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 4, QueueDepth: 64, Policy: PolicyQueue,
		QueueDeadline: 10 * time.Second, Export: "handle", Arg: 500,
	})
	d.SetObserver(tele)
	rep := Run(eng, d, LoadConfig{RatePerSec: 200, Duration: time.Second, Seed: 5})
	return tele, rep
}

// TestServingTelemetryCountersMatchReport asserts the telemetry counters
// agree with the report the harness computes independently.
func TestServingTelemetryCountersMatchReport(t *testing.T) {
	tele, rep := runObservedLoad(t)
	reg := tele.Metrics()
	scraped := map[string]int64{}
	snap := tele.Snapshot()
	for _, v := range append(snap.Counters, snap.Gauges...) {
		scraped[v.Name] = v.Value
	}
	check := func(name string, want int64) {
		t.Helper()
		if got, ok := scraped[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	check("loadgen_offered_total", rep.Offered)
	check("dispatch_submitted_total", rep.Dispatcher.Submitted)
	check("dispatch_completed_total", rep.Dispatcher.Completed)
	check("dispatch_rejected_total", rep.Dispatcher.Rejected)
	check("dispatch_expired_total", rep.Dispatcher.Expired)
	check("dispatch_failed_total", rep.Dispatcher.Failed)
	check("pool_warm_hits_total", rep.Pool.WarmHits)
	check("pool_cold_starts_total", rep.Pool.ColdStarts)
	check("pool_recycled_total", rep.Pool.Recycled)
	check("pool_discarded_total", rep.Pool.Discarded)
	if got := reg.Histogram("pool_reset_dirty_pages").Count(); got != rep.Pool.Recycled+rep.Pool.Discarded {
		t.Errorf("reset histogram count = %d, want %d releases", got, rep.Pool.Recycled+rep.Pool.Discarded)
	}
	if got := reg.Histogram("pool_reset_dirty_pages").Sum(); got != rep.Pool.ResetPages {
		t.Errorf("reset histogram sum = %d, want %d pages", got, rep.Pool.ResetPages)
	}
	if got := reg.Histogram("loadgen_e2e_latency_ns").Count(); got != int64(rep.Latency.N) {
		t.Errorf("latency histogram count = %d, want %d", got, rep.Latency.N)
	}
	// Gauges settle to an idle system.
	check("dispatch_in_flight", 0)
	check("pool_leased_instances", 0)
}

// TestServingTelemetryLifecycleSpans asserts the trace covers every phase of
// the request lifecycle with the attributes the acceptance criteria name:
// queue-wait, acquire (warm/cold split), invoke (instruction counts), and
// reset (dirty pages).
func TestServingTelemetryLifecycleSpans(t *testing.T) {
	tele, rep := runObservedLoad(t)
	spans := tele.Tracer().Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	attr := func(s obs.Span, key string) (int64, bool) {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Val, true
			}
		}
		return 0, false
	}
	phases := map[string]int{}
	var coldAcquires, warmAcquires int64
	var resetPagesTotal int64
	for _, s := range spans {
		phases[s.Name]++
		switch s.Name {
		case "acquire":
			cold, ok := attr(s, "cold")
			if !ok {
				t.Fatalf("acquire span missing cold attr: %+v", s)
			}
			if cold == 1 {
				coldAcquires++
			} else {
				warmAcquires++
			}
		case "invoke":
			if _, ok := attr(s, "instructions"); !ok {
				t.Fatalf("invoke span missing instructions attr: %+v", s)
			}
		case "reset":
			pages, ok := attr(s, "dirty_pages")
			if !ok {
				t.Fatalf("reset span missing dirty_pages attr: %+v", s)
			}
			resetPagesTotal += pages
		case "queue-wait":
			if s.Dur <= 0 {
				t.Fatalf("queue-wait span with non-positive duration: %+v", s)
			}
		}
	}
	for _, want := range []string{"queue-wait", "acquire", "invoke", "reset", "instantiate"} {
		if phases[want] == 0 {
			t.Errorf("no %q spans recorded (phases: %v)", want, phases)
		}
	}
	if coldAcquires != rep.Pool.ColdStarts {
		t.Errorf("cold acquire spans = %d, want %d", coldAcquires, rep.Pool.ColdStarts)
	}
	if warmAcquires != rep.Pool.WarmHits {
		t.Errorf("warm acquire spans = %d, want %d", warmAcquires, rep.Pool.WarmHits)
	}
	if resetPagesTotal != rep.Pool.ResetPages {
		t.Errorf("dirty pages across reset spans = %d, want %d", resetPagesTotal, rep.Pool.ResetPages)
	}
	// Spans ride the simulated clock: every span must start within the run's
	// makespan.
	for _, s := range spans {
		if s.Start < 0 || s.Start > int64(rep.Makespan) {
			t.Fatalf("span outside simulated timeline [0,%d]: %+v", int64(rep.Makespan), s)
		}
	}
}

// TestDispatcherObserverRace drives a DES load run on one goroutine while
// eight observer goroutines poll Stats, QueueLen, and InFlight — the
// synchronization contract Stats() documents, checked under -race by make
// race.
func TestDispatcherObserverRace(t *testing.T) {
	eng := des.NewEngine()
	tele := obs.New(obs.Config{})
	tele.Tracer().SetClock(func() int64 { return int64(eng.Now()) })
	pool := newTestPool(t, engine.WAMR, Config{Size: 2})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 2, QueueDepth: 32, Policy: PolicyQueue,
		QueueDeadline: 10 * time.Second, Export: "handle", Arg: 500,
	})
	d.SetObserver(tele)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := d.Stats()
				if st.Completed < 0 || d.QueueLen() < 0 || d.InFlight() < 0 {
					t.Error("impossible negative reading")
					return
				}
				_ = tele.Snapshot()
				_ = tele.Tracer().Spans()
			}
		}()
	}
	rep := Run(eng, d, LoadConfig{RatePerSec: 300, Duration: time.Second, Seed: 9})
	close(stop)
	wg.Wait()
	if rep.Dispatcher.Completed == 0 {
		t.Fatalf("degenerate run: %+v", rep.Dispatcher)
	}
	if st := d.Stats(); st != rep.Dispatcher {
		t.Fatalf("final stats drifted: %+v vs %+v", st, rep.Dispatcher)
	}
}

// TestTailSamplingHealthyTrafficLeavesRingEmpty pins TailConfig's promise on
// the serving path: every span of a healthy request — the pool's "reset"
// included, which Release emits before finish settles the track — rides the
// request's track and is dropped with it, while a failed request commits its
// whole tree.
func TestTailSamplingHealthyTrafficLeavesRingEmpty(t *testing.T) {
	eng := des.NewEngine()
	tele := obs.New(obs.Config{})
	tele.Tracer().SetClock(func() int64 { return int64(eng.Now()) })
	tr := tele.Tracer()
	tr.SetTailSampling(&obs.TailConfig{})
	pool := newTestPool(t, engine.WAMR, Config{Size: 2})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 2, QueueDepth: 8, Policy: PolicyQueue,
		QueueDeadline: time.Second, Export: "handle", Arg: 64,
	})
	d.SetObserver(tele)

	const healthy = 1000
	for i := 0; i < healthy; i++ {
		d.Submit(func(r RequestResult) {
			if r.Err != nil || r.TraceSampled {
				t.Errorf("healthy request: err %v, sampled %v", r.Err, r.TraceSampled)
			}
		})
		eng.Run()
	}
	if spans, st := tr.Spans(), tr.TailStats(); len(spans) != 0 || st.PendingSpans != 0 || st.SampledOutTracks != healthy {
		t.Fatalf("after %d healthy requests: %d spans in the ring (first %+v), tail stats %+v",
			healthy, len(spans), append(spans, obs.Span{})[0], st)
	}

	pool.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 1, TrapRate: 1}))
	var failed RequestResult
	d.Submit(func(r RequestResult) { failed = r })
	eng.Run()
	if failed.Err == nil || !failed.TraceSampled {
		t.Fatalf("injected trap: err %v, sampled %v", failed.Err, failed.TraceSampled)
	}
	names := map[string]int64{}
	for _, s := range tr.Spans() {
		names[s.Name] = s.TID
	}
	tid, ok := names["reset"]
	if !ok || tid == 0 || names["acquire"] != tid || names["invoke"] != tid || len(names) != 3 {
		t.Fatalf("failed request committed %v, want acquire/invoke/reset on one track", names)
	}
	if st := tr.TailStats(); st.PendingSpans != 0 || st.KeptTracks != 1 {
		t.Fatalf("tail stats after the failed request: %+v", st)
	}
}
