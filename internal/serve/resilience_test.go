package serve

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/obs/tsdb"
	"wasmcontainers/internal/wasm/exec"
)

// TestQueuedRequestsSurviveColdStartFailure is the regression test for the
// dispatcher stall: the cold-start failure path used to release its
// concurrency slot without draining the queue, so when the failing request
// was the only one in flight, every queued request hung until the simulation
// ended. All submitted requests must reach a terminal callback even when
// every instantiation fails.
func TestQueuedRequestsSurviveColdStartFailure(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 0}) // every request cold-starts
	pool.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 1, InstantiateFailRate: 1}))
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, QueueDepth: 4, Policy: PolicyQueue,
		Export: "handle", Arg: 16,
	})
	var callbacks, failed int
	for i := 0; i < 3; i++ {
		d.Submit(func(r RequestResult) {
			callbacks++
			if r.Admitted && r.Err != nil {
				failed++
			}
		})
	}
	eng.Run()
	if callbacks != 3 {
		t.Fatalf("%d of 3 callbacks fired — queued requests stalled", callbacks)
	}
	st := d.Stats()
	if st.Failed != 3 || failed != 3 {
		t.Fatalf("stats = %+v (failed callbacks: %d)", st, failed)
	}
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	if d.QueueLen() != 0 || d.InFlight() != 0 {
		t.Fatalf("queue=%d inflight=%d after drain", d.QueueLen(), d.InFlight())
	}
}

// TestFailedInvokeLatencyAccounting is the regression test for failure
// accounting: a trapped invoke used to end its span and free its slot at
// overhead+exec but report a latency without the executed time, and failed
// requests never reached the latency histogram. Latency must now equal the
// simulated time the request actually held its slot, and the histogram must
// count failures.
func TestFailedInvokeLatencyAccounting(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	pool.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 5, TrapRate: 1}))
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, Policy: PolicyReject, Export: "handle", Arg: 500,
	})
	tele := obs.New(obs.Config{})
	tele.Tracer().SetClock(func() int64 { return int64(eng.Now()) })
	d.SetObserver(tele)
	var res RequestResult
	var completedAt des.Time
	d.Submit(func(r RequestResult) {
		res = r
		completedAt = eng.Now()
	})
	eng.Run()
	if res.Err == nil {
		t.Fatal("injected trap did not surface")
	}
	if res.Latency != time.Duration(completedAt) {
		t.Fatalf("latency %v != slot-held time %v: failed request under-reports",
			res.Latency, time.Duration(completedAt))
	}
	if res.Latency < engine.WAMR.WarmInvokeOverhead {
		t.Fatalf("latency %v below warm overhead", res.Latency)
	}
	hist := tele.Histogram("dispatch_latency_ns")
	if hist.Count() != 1 {
		t.Fatalf("latency histogram count = %d, want failed request recorded", hist.Count())
	}
	if hist.Sum() != int64(res.Latency) {
		t.Fatalf("histogram sum %d != reported latency %d", hist.Sum(), int64(res.Latency))
	}
}

// TestExpiryAtAdmissionPreventsSpuriousRejection is the regression test for
// lazy deadline expiry: an already-expired queued request used to hold its
// QueueDepth slot until drain time, so a fresh arrival was rejected by a
// queue that was effectively empty. Expiry must run at admission, before the
// depth check.
func TestExpiryAtAdmissionPreventsSpuriousRejection(t *testing.T) {
	// Measure one solo warm request to scale the scenario deterministically.
	solo := func() time.Duration {
		eng := des.NewEngine()
		pool := newTestPool(t, engine.WAMR, Config{Size: 1})
		d := NewDispatcher(eng, pool, DispatcherConfig{
			MaxConcurrency: 1, Policy: PolicyReject, Export: "handle", Arg: 500,
		})
		var l time.Duration
		d.Submit(func(r RequestResult) { l = r.Latency })
		eng.Run()
		return l
	}()
	if solo <= 0 {
		t.Fatal("could not measure solo latency")
	}

	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, QueueDepth: 1, Policy: PolicyQueue,
		QueueDeadline: solo / 2, Export: "handle", Arg: 500,
	})
	var results []RequestResult
	record := func(r RequestResult) { results = append(results, r) }
	// A occupies the slot until ~solo; B queues at t=0 and expires at
	// t=solo/2; C arrives at t=3*solo/4 — with lazy admission expiry the dead
	// B frees its slot and C queues (waiting ~solo/4 < deadline), instead of
	// being rejected by a full-of-corpses queue.
	d.Submit(record)
	d.Submit(record)
	eng.At(des.Time(3*solo/4), func() { d.Submit(record) })
	eng.Run()
	st := d.Stats()
	if st.Rejected != 0 {
		t.Fatalf("fresh request rejected while queue held only expired heads: %+v", st)
	}
	if st.Completed != 2 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want A and C completed, B expired", st)
	}
	if len(results) != 3 {
		t.Fatalf("%d callbacks fired", len(results))
	}
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("accounting identity broken: %+v", st)
	}
}

// TestRetrySucceedsAfterTransientFailure: a request whose first attempt hits
// an instantiation failure retries after the backoff and completes; latency
// includes the backoff and the accounting lands on Completed, not Failed.
func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 0})
	pool.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 2, InstantiateFailRate: 1}))
	// The fault clears mid-backoff: the retry lands on a healthy engine.
	eng.At(des.Time(500*time.Microsecond), func() { pool.Engine().SetFaultInjector(nil) })
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, Policy: PolicyReject, Export: "handle", Arg: 16,
		MaxRetries: 3,
	})
	var res RequestResult
	var completedAt des.Time
	d.Submit(func(r RequestResult) { res, completedAt = r, eng.Now() })
	eng.Run()
	if res.Err != nil {
		t.Fatalf("retry did not recover: %v", res.Err)
	}
	if res.Attempts != 2 || res.RetryWait != time.Millisecond {
		t.Fatalf("attempts=%d retryWait=%v, want 2 attempts after one 1ms backoff",
			res.Attempts, res.RetryWait)
	}
	if res.Latency != time.Duration(completedAt) {
		t.Fatalf("latency %v != completion time %v", res.Latency, time.Duration(completedAt))
	}
	st := d.Stats()
	if st.Completed != 1 || st.Failed != 0 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRequestTimeoutBoundsRetries: with a permanently failing engine and a
// small RequestTimeout, the retry loop stops as soon as the next backoff
// would end past the deadline and the request fails with ErrRequestTimeout.
func TestRequestTimeoutBoundsRetries(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.WAMR, Config{Size: 0})
	pool.Engine().SetFaultInjector(faults.New(faults.Config{Seed: 3, InstantiateFailRate: 1}))
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, Policy: PolicyReject, Export: "handle", Arg: 16,
		MaxRetries: 100, RetryBackoffCap: 4 * time.Millisecond,
		RequestTimeout: 10 * time.Millisecond,
	})
	var res RequestResult
	d.Submit(func(r RequestResult) { res = r })
	eng.Run()
	if !errors.Is(res.Err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout", res.Err)
	}
	if !errors.Is(res.Err, faults.ErrInstantiate) {
		t.Fatalf("err = %v does not wrap the underlying cause", res.Err)
	}
	// Backoffs 1+2+4+4 = 11ms > 10ms: the fifth attempt never runs.
	if res.Attempts != 4 || res.RetryWait != 7*time.Millisecond {
		t.Fatalf("attempts=%d retryWait=%v, want 4 and 7ms", res.Attempts, res.RetryWait)
	}
	st := d.Stats()
	if st.Failed != 1 || st.TimedOut != 1 || st.Retries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// chaosRun drives the full resilience stack — faults on instantiate and
// invoke above the 10% acceptance floor, slow cold starts, retries,
// timeout, and mid-run memory-pressure drains — and returns everything
// observable.
func chaosRun(t *testing.T) (Report, DispatcherStats, faults.Stats) {
	t.Helper()
	eng := des.NewEngine()
	pool := newTestPoolPolicy(t, engine.Wasmtime, Config{Size: 2, IdleTTL: 2 * time.Second},
		exec.TierPolicy{Mode: exec.TierModeOff})
	// Tiering off: this scenario pins a fixed-seed tier-0 timeline (tier-up
	// would shorten warm invokes, starving the slow-cold-start draws the
	// assertions below require). Tiered serving is covered by the tier tests.
	// Arm after NewPool: pre-warming must succeed, request-path work sees the
	// faults.
	in := faults.New(faults.Config{
		Seed:                42,
		InstantiateFailRate: 0.15,
		TrapRate:            0.12,
		SlowColdRate:        0.3,
		SlowColdFactor:      4,
		PressureAt:          []time.Duration{300 * time.Millisecond, 700 * time.Millisecond},
	})
	pool.Engine().SetFaultInjector(in)
	in.ArmPressure(eng, func() { pool.DrainIdle(eng.Now()) })
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 2, QueueDepth: 16, Policy: PolicyQueue,
		QueueDeadline: time.Second, Export: "handle", Arg: 200,
		MaxRetries: 2, RetryBackoffCap: 4 * time.Millisecond,
		RequestTimeout: 250 * time.Millisecond,
	})
	rep := Run(eng, d, LoadConfig{RatePerSec: 120, Duration: time.Second, Seed: 42})
	if d.InFlight() != 0 || d.QueueLen() != 0 {
		t.Fatalf("stalled requests: inflight=%d queue=%d", d.InFlight(), d.QueueLen())
	}
	return rep, d.Stats(), in.Stats()
}

// TestChaosDeterminismAndAccounting is the acceptance scenario: a fixed-seed
// chaos run (instantiate + invoke fault rates above 10%) finishes with zero
// stalled requests, the accounting identity holds exactly, and a second run
// with the same seed reproduces every counter bit-for-bit.
func TestChaosDeterminismAndAccounting(t *testing.T) {
	rep, st, fs := chaosRun(t)
	if st.Submitted == 0 || st.Submitted != int64(rep.Offered) {
		t.Fatalf("submitted %d != offered %d", st.Submitted, rep.Offered)
	}
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	// The chaos must actually bite, and the resilience layer must actually
	// work: injected faults fire, retries recover some of them.
	if fs.InstantiateFailures == 0 || fs.Traps == 0 || fs.SlowColdStarts == 0 {
		t.Fatalf("faults did not fire: %+v", fs)
	}
	if st.Retries == 0 || st.Completed == 0 {
		t.Fatalf("resilience layer inert: %+v", st)
	}
	if fs.PressureEvents != 2 {
		t.Fatalf("pressure events = %d, want 2", fs.PressureEvents)
	}

	rep2, st2, fs2 := chaosRun(t)
	if st != st2 || fs != fs2 {
		t.Fatalf("same seed, different counters:\n%+v\n%+v\nfaults:\n%+v\n%+v", st, st2, fs, fs2)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", rep, rep2)
	}
}

// TestChaosObserversRaceFree runs the chaos scenario while 8 goroutines
// hammer every cross-goroutine read surface — dispatcher stats, queue
// length and in-flight count, pool stats, injector stats, and telemetry
// snapshots, which run the dispatcher's, pool's and cache's metric sources
// (the last two take their component's lock) — and one of them also closes
// tsdb windows over the same sources. Only meaningful under -race; it asserts
// the observer contract and the lock order between a scrape and the dispatch
// path, not determinism (which is single-goroutine).
func TestChaosObserversRaceFree(t *testing.T) {
	eng := des.NewEngine()
	pool := newTestPool(t, engine.Wasmtime, Config{Size: 2})
	in := faults.New(faults.Config{Seed: 9, InstantiateFailRate: 0.2, TrapRate: 0.2})
	pool.Engine().SetFaultInjector(in)
	tele := obs.New(obs.Config{})
	pool.Engine().SetObserver(tele)
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 2, QueueDepth: 16, Policy: PolicyQueue,
		QueueDeadline: time.Second, Export: "handle", Arg: 100,
		MaxRetries: 2,
	})
	d.SetObserver(tele)
	db := tsdb.New(tele, tsdb.Config{Interval: time.Nanosecond})
	db.TrackCounter("dispatch_submitted_total")
	db.TrackGauge("pool_idle_instances")
	var windows int64 // owned by poller 0 until wg.Wait: the tsdb is single-writer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = tele.Snapshot()
					if g == 0 {
						windows++
						db.Advance(windows)
					}
					_ = d.Stats()
					_ = d.QueueLen()
					_ = d.InFlight()
					_ = pool.Stats()
					_ = pool.MemoryBytes()
					_ = in.Stats()
					runtime.Gosched()
				}
			}
		}()
	}
	Run(eng, d, LoadConfig{RatePerSec: 150, Duration: 500 * time.Millisecond, Seed: 11})
	close(stop)
	wg.Wait()
	st := d.Stats()
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("accounting identity broken under observers: %+v", st)
	}
	db.Advance(windows + 1)
	if w := db.Windows(1)[0]; w.Counters[0].Total != st.Submitted || w.Gauges[0].Value != int64(pool.Idle()) {
		t.Fatalf("last window %+v %+v, want submitted %d and %d idle", w.Counters, w.Gauges, st.Submitted, pool.Idle())
	}
}
