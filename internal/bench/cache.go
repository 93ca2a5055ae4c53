package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/metrics"
	"wasmcontainers/internal/workloads"
)

// cacheReps is how many instantiations each cell of the cache ablation times.
// The medians of host wall-clock microbenchmarks at microsecond scale need a
// few hundred reps to sit still under scheduler noise.
const cacheReps = 256

// cacheDensity is the pod count used to report the node-level shared-code
// saving: without the cache every pod would hold its own compiled copy.
const cacheDensity = 100

// AblationModuleCache contrasts the cold compile+instantiate path (every pod
// pays decode + validate + precompile) with the content-addressed cache hit
// path (one compile per module digest per node), for every engine profile.
// Latencies are real host wall-clock over the interpreter's actual work, not
// simulated time: the cache elides host-side compilation, which is the same
// work regardless of which engine profile's cost model wraps it.
func AblationModuleCache() (*Table, error) {
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: content-addressed module cache, cold vs cached instantiate",
		Columns: []string{
			"engine", "cold p50 (us)", "cached p50 (us)", "speedup",
			"code (KiB)", fmt.Sprintf("saved/node @%d pods (KiB)", cacheDensity),
			"hits", "misses",
		},
	}
	for _, p := range engine.Profiles() {
		cold := make([]float64, 0, cacheReps)
		for i := 0; i < cacheReps; i++ {
			// A fresh engine per rep means a fresh private cache: this is the
			// no-sharing baseline where every pod recompiles the module.
			eng := engine.New(p)
			start := time.Now()
			cm, err := eng.Compile(bin)
			if err != nil {
				return nil, err
			}
			if _, err := eng.Instantiate(cm); err != nil {
				return nil, err
			}
			cold = append(cold, float64(time.Since(start).Nanoseconds())/1e3)
		}

		eng := engine.New(p)
		cm, err := eng.Compile(bin) // warm the cache: the one real compile
		if err != nil {
			return nil, err
		}
		cached := make([]float64, 0, cacheReps)
		for i := 0; i < cacheReps; i++ {
			start := time.Now()
			cm, err = eng.Compile(bin)
			if err != nil {
				return nil, err
			}
			if _, err := eng.Instantiate(cm); err != nil {
				return nil, err
			}
			cached = append(cached, float64(time.Since(start).Nanoseconds())/1e3)
		}
		st := eng.CacheStats()

		cs := metrics.Summarize(cold)
		ws := metrics.Summarize(cached)
		codeKiB := float64(cm.Code.CodeBytes()) / 1024
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprintf("%.1f", cs.P50),
			fmt.Sprintf("%.1f", ws.P50),
			fmt.Sprintf("%.2fx", cs.P50/ws.P50),
			fmt.Sprintf("%.1f", codeKiB),
			fmt.Sprintf("%.1f", codeKiB*float64(cacheDensity-1)),
			fmt.Sprintf("%d", st.Hits),
			fmt.Sprintf("%d", st.Misses),
		})
	}
	t.Notes = append(t.Notes,
		"cold = fresh engine (empty cache) per instantiate; cached = one node-level cache shared by all instantiations",
		fmt.Sprintf("saved/node = compiled-code bytes not duplicated when %d pods of one module share a digest", cacheDensity),
	)
	return t, nil
}
