package des

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.At(30, func() { order = append(order, 3) })
	eng.At(10, func() { order = append(order, 1) })
	eng.At(20, func() { order = append(order, 2) })
	eng.At(10, func() { order = append(order, 11) }) // same time: schedule order
	end := eng.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 11, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	eng.After(5*time.Nanosecond, func() {
		fired = append(fired, eng.Now())
		eng.After(7*time.Nanosecond, func() {
			fired = append(fired, eng.Now())
		})
	})
	eng.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 12 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestPastEventsClamp(t *testing.T) {
	eng := NewEngine()
	eng.At(100, func() {
		eng.At(50, func() {
			if eng.Now() != 100 {
				t.Errorf("past event ran at %d, want clamped to 100", eng.Now())
			}
		})
	})
	eng.Run()
}

func TestCPUPoolSingleCore(t *testing.T) {
	eng := NewEngine()
	pool := NewCPUPool(eng, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		pool.Submit(10*time.Nanosecond, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	// Serialized on one core: 10, 20, 30.
	if len(done) != 3 || done[0] != 10 || done[1] != 20 || done[2] != 30 {
		t.Fatalf("done = %v", done)
	}
}

func TestCPUPoolParallelism(t *testing.T) {
	eng := NewEngine()
	pool := NewCPUPool(eng, 4)
	var finishes []Time
	for i := 0; i < 8; i++ {
		pool.Submit(10*time.Nanosecond, func() { finishes = append(finishes, eng.Now()) })
	}
	end := eng.Run()
	// 8 tasks × 10ns on 4 cores = 2 waves: all finish by t=20.
	if end != 20 {
		t.Fatalf("makespan = %d, want 20", end)
	}
	first := 0
	for _, f := range finishes {
		if f == 10 {
			first++
		}
	}
	if first != 4 {
		t.Fatalf("%d tasks finished in the first wave, want 4", first)
	}
	// Both waves kept all four cores busy.
	if pool.BusyTime != int64(end)*4 {
		t.Fatalf("busy time = %d, want %d", pool.BusyTime, int64(end)*4)
	}
}

func TestResourceContention(t *testing.T) {
	eng := NewEngine()
	res := NewResource(eng)
	var finishes []Time
	// Three immediate acquisitions of 10ns each serialize.
	for i := 0; i < 3; i++ {
		res.Acquire(10*time.Nanosecond, func() { finishes = append(finishes, eng.Now()) })
	}
	eng.Run()
	if len(finishes) != 3 || finishes[2] != 30 {
		t.Fatalf("finishes = %v", finishes)
	}
	if res.Waits != 10+20 {
		t.Fatalf("total waits = %d, want 30", res.Waits)
	}
	if res.Acquisitions != 3 {
		t.Fatalf("acquisitions = %d", res.Acquisitions)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		eng := NewEngine()
		pool := NewCPUPool(eng, 3)
		res := NewResource(eng)
		var log []Time
		for i := 0; i < 10; i++ {
			d := time.Duration(3+i%4) * time.Nanosecond
			pool.Submit(d, func() {
				res.Acquire(2*time.Nanosecond, func() { log = append(log, eng.Now()) })
			})
		}
		eng.Run()
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestStepAndPending(t *testing.T) {
	eng := NewEngine()
	if eng.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	fired := 0
	eng.At(5, func() { fired++ })
	eng.At(9, func() { fired++ })
	if eng.Pending() != 2 {
		t.Fatalf("pending = %d", eng.Pending())
	}
	if !eng.Step() || fired != 1 || eng.Now() != 5 {
		t.Fatalf("first step: fired=%d now=%d", fired, eng.Now())
	}
	if !eng.Step() || fired != 2 || eng.Now() != 9 {
		t.Fatalf("second step: fired=%d now=%d", fired, eng.Now())
	}
	if eng.Step() {
		t.Fatal("Step past end returned true")
	}
}

func TestSubmitAtFutureReadyTime(t *testing.T) {
	eng := NewEngine()
	pool := NewCPUPool(eng, 2)
	var done Time
	pool.SubmitAt(100, 10*time.Nanosecond, func() { done = eng.Now() })
	eng.Run()
	if done != 110 {
		t.Fatalf("done at %d, want 110", done)
	}
	if pool.Cores() != 2 {
		t.Fatal("core count")
	}
}

func TestNextAt(t *testing.T) {
	eng := NewEngine()
	if _, ok := eng.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported an event")
	}
	eng.At(40, func() {})
	eng.At(15, func() {})
	if at, ok := eng.NextAt(); !ok || at != 15 {
		t.Fatalf("NextAt = %d,%v, want 15,true", at, ok)
	}
	// Peeking does not consume: stepping still fires the earliest event.
	if !eng.Step() || eng.Now() != 15 {
		t.Fatalf("Step after NextAt landed at %d, want 15", eng.Now())
	}
	if at, ok := eng.NextAt(); !ok || at != 40 {
		t.Fatalf("NextAt after step = %d,%v, want 40,true", at, ok)
	}
}

// TestPropertyFireOrderIsSortedSchedule checks the engine against a model on
// seeded random schedules: absolute and relative times with many same-instant
// ties and past times that clamp, events that schedule more events from
// inside Step, and Step, NextAt and Pending interleaved with a final Run. An
// event scheduled from inside another is never earlier than the running one
// and always later in schedule order, so every event ever scheduled fires in
// the order of a stable sort by (at, seq), and at each Step the model's
// earliest pending event is what NextAt reports and what fires.
func TestPropertyFireOrderIsSortedSchedule(t *testing.T) {
	type ev struct {
		at  Time
		seq int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		var scheduled []ev // index = seq - 1
		pending := map[int]Time{}
		var fired []int
		var schedule func(depth int)
		schedule = func(depth int) {
			seq := len(scheduled) + 1
			var fn func()
			fn = func() {
				delete(pending, seq)
				fired = append(fired, seq)
				if depth < 3 {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(depth + 1)
					}
				}
			}
			at := eng.Now() + Time(rng.Intn(8)) - 2 // a tie or a past time in half the draws
			if rng.Intn(2) == 0 {
				eng.At(at, fn)
			} else {
				eng.After(Duration(at-eng.Now()), fn)
			}
			if at < eng.Now() {
				at = eng.Now()
			}
			scheduled = append(scheduled, ev{at, seq})
			pending[seq] = at
		}
		for i := 0; i < 200; i++ {
			schedule(0)
		}
		for i := 0; i < 300; i++ {
			if got := eng.Pending(); got != len(pending) {
				t.Fatalf("seed %d: Pending = %d, model holds %d", seed, got, len(pending))
			}
			next, want := 0, ev{}
			for seq, at := range pending {
				if next == 0 || at < want.at || at == want.at && seq < want.seq {
					next, want = seq, ev{at, seq}
				}
			}
			at, ok := eng.NextAt()
			if ok != (next != 0) || ok && at != want.at {
				t.Fatalf("seed %d: NextAt = %d, %v; model's earliest is %+v", seed, at, ok, want)
			}
			if !eng.Step() {
				if next != 0 {
					t.Fatalf("seed %d: Step found no event, model holds %d", seed, len(pending))
				}
				break
			}
			if last := fired[len(fired)-1]; last != next || eng.Now() != want.at {
				t.Fatalf("seed %d: Step fired seq %d at %d, want seq %d at %d", seed, last, eng.Now(), next, want.at)
			}
		}
		end := eng.Run()
		if eng.Pending() != 0 || len(pending) != 0 || eng.Step() {
			t.Fatalf("seed %d: queue not empty after Run", seed)
		}
		if _, ok := eng.NextAt(); ok {
			t.Fatalf("seed %d: NextAt reports an event after Run", seed)
		}
		sorted := append([]ev(nil), scheduled...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].at != sorted[j].at {
				return sorted[i].at < sorted[j].at
			}
			return sorted[i].seq < sorted[j].seq
		})
		if len(fired) != len(sorted) {
			t.Fatalf("seed %d: fired %d of %d scheduled events", seed, len(fired), len(sorted))
		}
		for i, e := range sorted {
			if fired[i] != e.seq {
				t.Fatalf("seed %d: event %d fired seq %d, sorted schedule has seq %d", seed, i, fired[i], e.seq)
			}
		}
		if end != sorted[len(sorted)-1].at {
			t.Fatalf("seed %d: Run ended at %d, last event is at %d", seed, end, sorted[len(sorted)-1].at)
		}
	}
}

// TestEngineScheduleAllocs pins the event queue's steady-state cost: once the
// heap has grown, scheduling a prebuilt closure and stepping it allocates
// nothing — events are stored by value, not boxed one by one.
func TestEngineScheduleAllocs(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.At(Time(i), fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.At(eng.Now()+1, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("At + Step allocates %.0f times, want 0", allocs)
	}
}
