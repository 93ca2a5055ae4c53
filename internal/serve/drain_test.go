package serve

import (
	"errors"
	"testing"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/obs"
)

// TestDrainingRejectsNewWork: once SetDraining flips, every Submit is
// refused with ErrDraining and counted as rejected — nothing enters the
// queue or the pool.
func TestDrainingRejectsNewWork(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 2})
	eng := des.NewEngine()
	d := NewDispatcher(eng, pool, DispatcherConfig{MaxConcurrency: 2, Export: "handle"})

	d.SetDraining(true)
	if !d.Draining() {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	var got error
	d.Submit(func(r RequestResult) { got = r.Err })
	if !errors.Is(got, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", got)
	}
	eng.Run()
	st := d.Stats()
	if st.Submitted != 1 || st.Rejected != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v, want 1 submitted, 1 rejected", st)
	}
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("identity broken: %+v", st)
	}
}

// TestDrainFlushesInFlight: requests admitted before the drain flag flips
// still run to completion; the flag only gates new admissions.
func TestDrainFlushesInFlight(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	eng := des.NewEngine()
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, QueueDepth: 4, Policy: PolicyQueue, Export: "handle",
	})

	var completed int
	for i := 0; i < 3; i++ {
		d.Submit(func(r RequestResult) {
			if r.Err == nil {
				completed++
			}
		})
	}
	d.SetDraining(true)
	var late error
	d.Submit(func(r RequestResult) { late = r.Err })
	eng.Run()

	if completed != 3 {
		t.Fatalf("completed = %d, want 3 (admitted work must flush)", completed)
	}
	if !errors.Is(late, ErrDraining) {
		t.Fatalf("late err = %v, want ErrDraining", late)
	}
	st := d.Stats()
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		t.Fatalf("identity broken: %+v", st)
	}
}

// TestQuiesceHook: the hook fires exactly when in-flight and queued work
// both reach zero, and Quiesced() agrees.
func TestQuiesceHook(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	eng := des.NewEngine()
	d := NewDispatcher(eng, pool, DispatcherConfig{
		MaxConcurrency: 1, QueueDepth: 4, Policy: PolicyQueue, Export: "handle",
	})

	fired := 0
	d.SetQuiesceHook(func() {
		fired++
		if !d.Quiesced() {
			t.Error("hook fired while not quiesced")
		}
	})
	if !d.Quiesced() {
		t.Fatal("fresh dispatcher should be quiesced")
	}
	for i := 0; i < 3; i++ {
		d.Submit(func(RequestResult) {})
	}
	if d.Quiesced() {
		t.Fatal("quiesced with work in flight")
	}
	eng.Run()
	if !d.Quiesced() {
		t.Fatal("not quiesced after Run")
	}
	if fired == 0 {
		t.Fatal("quiesce hook never fired")
	}
}

// TestBatchItemTIDFallback: TID 0 falls back to the internal sequence, so
// Submit (a batch of one with no TID) keeps producing distinct span tracks
// next to explicitly numbered requests.
func TestBatchItemTIDFallback(t *testing.T) {
	pool := newTestPool(t, engine.WAMR, Config{Size: 1})
	eng := des.NewEngine()
	d := NewDispatcher(eng, pool, DispatcherConfig{MaxConcurrency: 2, Export: "handle"})
	tele := obs.New(obs.Config{})
	tele.Tracer().SetClock(func() int64 { return int64(eng.Now()) })
	d.SetObserver(tele)

	var errs []error
	done := func(r RequestResult) { errs = append(errs, r.Err) }
	d.SubmitBatch([]BatchItem{{Done: done}, {TID: 42, Done: done}})
	eng.Run()
	if len(errs) != 2 || errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v, want two nils", errs)
	}
	if st := d.Stats(); st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	tids := map[int64]bool{}
	for _, sp := range tele.Tracer().Spans() {
		if sp.Name == "invoke" {
			tids[sp.TID] = true
		}
	}
	if !tids[1] || !tids[42] || len(tids) != 2 {
		t.Fatalf("invoke span tracks = %v, want {1, 42}", tids)
	}
}
