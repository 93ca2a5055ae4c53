package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/wat"
)

// growHandlerWAT grows linear memory by the request argument (pages) and
// writes into the grown region: a request that privatizes pages beyond the
// baseline, which Release must give back.
const growHandlerWAT = `
(module
  (memory (export "memory") 1 16)
  (func (export "handle") (param $n i32) (result i32)
    (if (i32.lt_s (memory.grow (local.get $n)) (i32.const 0))
      (then (return (i32.const -1))))
    ;; dirty a grown page and a baseline page
    (i32.store (i32.const 65536) (i32.const 7))
    (i32.store (i32.const 0) (i32.const 7))
    (memory.size)))
`

// isolationHandlerWAT stores the request's value at two spots (a low one and
// a high one), spins to widen any race window, then verifies both spots
// still read the request's own value. Address 16 doubles as a stale-state
// detector: it must read 0 on entry, so any missed reset or cross-instance
// bleed is observable.
func isolationHandlerWAT(pages, highAddr int) string {
	return fmt.Sprintf(`
(module
  (memory (export "memory") %d)
  (func (export "handle") (param $v i32) (result i32)
    (local $i i32)
    (if (i32.load (i32.const 16)) (then (return (i32.const -1))))
    (if (i32.load (i32.const %[2]d)) (then (return (i32.const -1))))
    (i32.store (i32.const 16) (local.get $v))
    (i32.store (i32.const %[2]d) (local.get $v))
    block $done
      loop $spin
        local.get $i
        i32.const 2000
        i32.ge_u
        br_if $done
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $spin
      end
    end
    (if (i32.ne (i32.load (i32.const 16)) (local.get $v))
      (then (return (i32.const -2))))
    (if (i32.ne (i32.load (i32.const %[2]d)) (local.get $v))
      (then (return (i32.const -3))))
    (i32.const 1)))
`, pages, highAddr)
}

func newWATPool(t testing.TB, p engine.Profile, src string, cfg Config) *Pool {
	t.Helper()
	bin, err := wat.CompileToBinary(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(p)
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

// TestPoolGrowThenReset: an instance that grows memory mid-request must
// shrink back to the baseline page count on Release, with dirty/private
// accounting returning to zero.
func TestPoolGrowThenReset(t *testing.T) {
	pool := newWATPool(t, engine.WAMR, growHandlerWAT, Config{Size: 1})

	idleMem := pool.MemoryBytes()
	wi, ok := pool.Acquire(0)
	if !ok {
		t.Fatal("pool dry")
	}
	res, err := wi.Invoke("handle", exec.I32(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res.Values[0]); got != 5 {
		t.Fatalf("memory.size after grow = %d pages, want 5", got)
	}
	// Mid-request the instance carries private pages: the grown pages plus
	// the dirtied baseline page.
	if priv := wi.inst.PrivateMemoryBytes(); priv != 5*64*1024 {
		t.Fatalf("private bytes mid-request = %d, want 5 pages", priv)
	}

	pool.Release(wi, 0)

	wi2, ok := pool.Acquire(0)
	if !ok {
		t.Fatal("pool dry after release")
	}
	if got := wi2.inst.GuestMemoryBytes(); got != 64*1024 {
		t.Fatalf("guest memory after reset = %d, want baseline 1 page", got)
	}
	if priv := wi2.inst.PrivateMemoryBytes(); priv != 0 {
		t.Fatalf("private bytes after reset = %d, want 0", priv)
	}
	v, err := wi2.inst.Invoke("handle", exec.I32(1))
	if err != nil {
		t.Fatal(err)
	}
	// A second grow starting over from the 1-page baseline lands on 2 pages:
	// the first request's growth really was released.
	if exec.AsI32(v.Values[0]) != 2 {
		t.Fatalf("baseline page count drifted: memory.size = %d", exec.AsI32(v.Values[0]))
	}
	pool.Release(wi2, 0)

	// Pool accounting returned to the idle figure; the high-water mark
	// recorded the privatized pages.
	if got := pool.MemoryBytes(); got != idleMem {
		t.Fatalf("pool memory = %d after grow-then-reset, want %d", got, idleMem)
	}
	if hw := pool.HighWater(); hw < idleMem+5*64*1024 {
		t.Fatalf("high water %d did not record the request's private pages", hw)
	}
	// The only page copied back by the resets is the dirtied baseline page
	// (grown pages are dropped, and request 2 with grow(0) dirtied one page).
	if st := pool.Stats(); st.ResetPages != 2 {
		t.Fatalf("reset pages = %d, want 2", st.ResetPages)
	}
}

// TestPoolConcurrentSharedBaselineIsolation hammers shared baseline images
// from 8 goroutines under -race: every request writes its own value into
// pages of an instance aliasing the same BaselineImage as other goroutines'
// instances, and verifies no instance ever observes another's dirty pages
// (and no dirty page survives a release). The three pools cover both reset
// rules and interleave them: the 4-page module dirties 2 of 4 pages (dirty
// pages copied back, the buffer stays), the 1- and 2-page modules dirty
// every page (each release re-aliases and parks the buffer, each request's
// first store materialises again — from a free-list the goroutines share and
// that holds two buffer sizes).
func TestPoolConcurrentSharedBaselineIsolation(t *testing.T) {
	const (
		goroutines = 8
		iterations = 60
	)
	shapes := []struct{ pages, highAddr, dirty int }{
		{4, 2 * 65536, 2},
		{1, 32768, 1},
		{2, 65536 + 8, 2},
	}
	pools := make([]*Pool, len(shapes))
	for i, sh := range shapes {
		pools[i] = newWATPool(t, engine.WAMR, isolationHandlerWAT(sh.pages, sh.highAddr), Config{Size: 4})
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	var errs atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				pool := pools[(g+i)%len(pools)]
				wi, ok := pool.Acquire(0)
				if !ok {
					var err error
					wi, err = pool.ColdStart()
					if err != nil {
						errs.Add(1)
						return
					}
				}
				// Unique nonzero value per (goroutine, iteration).
				v := int32(1 + g*iterations + i)
				res, err := wi.Invoke("handle", exec.I32(v))
				if err != nil {
					errs.Add(1)
				} else if exec.AsI32(res.Values[0]) != 1 {
					bad.Add(1)
				}
				pool.Release(wi, 0)
			}
		}(g)
	}
	wg.Wait()
	if n := errs.Load(); n != 0 {
		t.Fatalf("%d invocations failed", n)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests observed foreign or stale dirty pages", n)
	}
	for i, sh := range shapes {
		if got := pools[i].SharedArtifacts()[engine.ArtifactData].Bytes; got != int64(sh.pages)*64*1024 {
			t.Fatalf("%d-page module: shared baseline = %d", sh.pages, got)
		}
		// Every release rewound exactly the dirtied pages, by copy-back or by
		// re-aliasing.
		requests := goroutines * iterations / len(shapes)
		if st := pools[i].Stats(); st.ResetPages != int64(sh.dirty*requests) {
			t.Fatalf("%d-page module: reset pages = %d, want %d", sh.pages, st.ResetPages, sh.dirty*requests)
		}
	}
}

// heapAfterGC is the live Go heap once garbage is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// idlePagesWAT has the shape of the cow ablation's workload: a 16-page
// (1 MiB) linear memory an idle instance never touches.
const idlePagesWAT = `
(module
  (memory (export "memory") 16)
  (func (export "handle") (param $n i32) (result i32) (memory.size)))
`

// TestIdleInstancesHoldNoPrivatePages is the paper's sharing claim measured
// on our own process: the Go heap an idle warm instance pins does not
// include its linear memory — that is the shared image, held once — and an
// instance that served a request gives its private buffer back on release.
func TestIdleInstancesHoldNoPrivatePages(t *testing.T) {
	// 64 idle instances of a 1 MiB memory: one image, not 64 buffers (65 MiB
	// when every instance held its own bytes plus the image copy).
	before := heapAfterGC()
	big := newWATPool(t, engine.WAMR, idlePagesWAT, Config{Size: 64})
	grew := int64(heapAfterGC()) - int64(before)
	if grew > 2<<20 {
		t.Errorf("64 idle instances of a 16-page module pin %d KiB of heap, want under 2 MiB", grew>>10)
	}
	if big.Idle() != 64 {
		t.Fatalf("idle = %d, want 64", big.Idle())
	}

	// The cold-deploy shape: 100 separately compiled request-handler
	// modules, a pool of 4 each, one request each. Per instance that is a
	// quarter of an image plus engine-side state; the one buffer a request
	// materialised is recycled by the next pool's request.
	const pools, size = 100, 4
	before = heapAfterGC()
	live := make([]*Pool, pools)
	for i := range live {
		live[i] = newTestPool(t, engine.WAMR, Config{Size: size})
		wi, ok := live[i].Acquire(0)
		if !ok {
			t.Fatal("pool dry")
		}
		if res, err := wi.Invoke("handle", exec.I32(64)); err != nil || exec.AsI32(res.Values[0]) != 1 {
			t.Fatalf("handle(64) = %v, %v", res.Values, err)
		}
		live[i].Release(wi, 0)
	}
	perInstance := float64(int64(heapAfterGC())-int64(before)) / 1024 / (pools * size)
	if perInstance > 24 {
		t.Errorf("%.1f KiB of heap per warm instance, want under 24", perInstance)
	}
	t.Logf("16-page pool of 64: %d KiB; request-handler: %.1f KiB per warm instance", grew>>10, perInstance)
	runtime.KeepAlive(big)
	runtime.KeepAlive(live)
}
