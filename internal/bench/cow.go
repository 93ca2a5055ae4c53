package bench

import (
	"fmt"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wat"
)

// cowWAT is the copy-on-write ablation workload: a 16-page (1 MiB) linear
// memory — large enough that full-copy resets visibly cost O(memory) — whose
// handler dirties the first n pages per request.
const cowWAT = `
(module
  (memory (export "memory") 16)
  (func (export "handle") (param $n i32) (result i32)
    (local $i i32)
    block $done
      loop $l
        local.get $i
        local.get $n
        i32.ge_u
        br_if $done
        (i32.store (i32.mul (local.get $i) (i32.const 65536)) (i32.add (local.get $i) (i32.const 1)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $l
      end
    end
    (memory.size)))
`

// cowTouchPages is how many of the 16 pages each request dirties (12.5%).
const cowTouchPages = 2

// cowDensities are the pod counts of the paper's density sweeps.
var cowDensities = []int{10, 100, 400}

// AblationCoW quantifies copy-on-write warm instances for every engine
// profile at the paper's densities. Before this design each warm instance
// held its full linear memory privately plus a same-sized reset snapshot,
// and Release memcpy'd the whole memory; now all instances alias one shared
// baseline image (accounted once per node, like the compiled code), an idle
// instance costs only its engine-side state, and Release copies back just
// the pages the request dirtied. Every column is accounted bytes; the reset
// cost is a wall-clock figure and lives in the benchmark ladder
// (exec.reset_ns_per_page) and BenchmarkPoolRelease{Full,DirtyPages}.
func AblationCoW() (*Table, error) {
	bin, err := wat.CompileToBinary(cowWAT)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: copy-on-write warm instances, shared baseline image + dirty-page reset",
		Columns: []string{
			"engine", "pods", "baseline (KiB)", "warm KiB/inst (CoW)",
			"warm KiB/inst (snapshot era)", "saved/node (MiB)",
		},
	}
	for _, p := range engine.Profiles() {
		eng := engine.New(p)
		cm, err := eng.Compile(bin)
		if err != nil {
			return nil, err
		}
		for _, density := range cowDensities {
			pool, err := serve.NewPool(eng, cm, serve.Config{Size: density})
			if err != nil {
				return nil, err
			}
			baseline := cm.Code.BaselineBytes()

			// Per-instance accounted bytes under CoW: total minus the shared
			// artifacts, over the instance count.
			perNew := (pool.MemoryBytes() - cm.Code.CodeBytes() - baseline) / int64(density)
			// The snapshot-era instance privately held its whole linear
			// memory plus a same-sized reset snapshot on top of engine state.
			perOld := perNew + 2*baseline
			saved := int64(density)*(perOld-perNew) - baseline

			t.Rows = append(t.Rows, []string{
				p.Name,
				fmt.Sprintf("%d", density),
				fmt.Sprintf("%.0f", float64(baseline)/1024),
				fmt.Sprintf("%.0f", float64(perNew)/1024),
				fmt.Sprintf("%.0f", float64(perOld)/1024),
				fmt.Sprintf("%.1f", float64(saved)/(1024*1024)),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: 16-page (1 MiB) linear memory, each request dirties %d pages (%.0f%%)",
			cowTouchPages, 100*float64(cowTouchPages)/16),
		"snapshot era = per-instance private linear memory + same-sized reset snapshot (how the pool worked before CoW)",
		"saved/node = instance bytes no longer duplicated, minus the one shared baseline copy the node still holds",
	)
	return t, nil
}
