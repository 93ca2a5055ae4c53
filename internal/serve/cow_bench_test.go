package serve

import (
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/wasm/exec"
)

// benchTouchWAT is the reset-cost workload: a 64-page (4 MiB) memory whose
// handler dirties the first n pages — a request touching a small fraction of
// a large memory, the regime where copy-on-write reset wins.
const benchTouchWAT = `
(module
  (memory (export "memory") 64)
  (func (export "touch") (param $n i32)
    (local $i i32)
    block $done
      loop $l
        local.get $i
        local.get $n
        i32.ge_u
        br_if $done
        (i32.store (i32.mul (local.get $i) (i32.const 65536)) (i32.const 1))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $l
      end
    end))
`

// touchedPages is under 10% of the 64-page memory; the acceptance bar is a
// >=5x reset speedup in exactly this regime.
const touchedPages = 6

// BenchmarkPoolReleaseFull measures the full-copy reference: the reset the
// pool performed before copy-on-write, a whole-memory copy from a snapshot
// (rebuilt here from Memory.Write), costing O(memory size) no matter how
// little a request touched.
func BenchmarkPoolReleaseFull(b *testing.B) {
	pool := newWATPool(b, engine.WAMR, benchTouchWAT, Config{Size: 1})
	inst, err := exec.NewStore(exec.Config{}).InstantiateCompiled(pool.cm.Code, "")
	if err != nil {
		b.Fatal(err)
	}
	mem := inst.Memory()
	snapshot, _ := mem.Read(0, uint32(mem.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := inst.Call("touch", exec.I32(touchedPages)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		mem.Write(0, snapshot)
	}
}

// BenchmarkPoolReleaseDirtyPages measures the copy-on-write reset the pool
// now performs on Release: only the pages the request dirtied are copied
// back from the shared baseline image, costing O(pages touched).
func BenchmarkPoolReleaseDirtyPages(b *testing.B) {
	pool := newWATPool(b, engine.WAMR, benchTouchWAT, Config{Size: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wi, ok := pool.Acquire(0)
		if !ok {
			b.Fatal("pool dry")
		}
		if _, err := wi.Invoke("touch", exec.I32(touchedPages)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		pool.Release(wi, 0)
	}
}
