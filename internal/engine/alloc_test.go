package engine

import (
	"testing"

	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// instSink keeps each Instance live, as a caller holding it would.
var instSink *Instance

// TestInstantiateAllocs pins what one warm instance of a cached module costs
// the engine: the engine's Instance holds the store, which carries the
// instance and its memory, in one allocation, and the functions take one
// block. A memory that aliases the module's baseline image allocates nothing
// for its bytes. Before co-allocation it was nine: the store, its two empty
// maps, the instance, a one-element function slice and its function, the
// memory, its dirty bitmap and the engine's Instance; with the store apart
// from the Instance it was three.
//
// The second row adds the fresh instance's first call at tier 0: the
// argument and result slices, the interpreter's 64-slot frame buffer, and
// the private copy of the one memory page the request writes. The store's
// frame free-list starts on an inline slot, so putting the buffer back
// allocates nothing.
func TestInstantiateAllocs(t *testing.T) {
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		call bool
		max  float64
	}{
		{"instantiate", false, 2},
		{"instantiate+first-call", true, 6},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := New(WAMR)
			eng.SetTierPolicy(exec.TierPolicy{Mode: exec.TierModeOff})
			cm, err := eng.Compile(bin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Instantiate(cm); err != nil { // publishes the baseline image
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if instSink, err = eng.Instantiate(cm); err != nil {
					t.Fatal(err)
				}
				if row.call {
					if _, err := instSink.Invoke("handle", exec.I32(0)); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Logf("%s (request-handler, cached): %.0f allocs", row.name, allocs)
			if allocs > row.max {
				t.Fatalf("%s of a cached request-handler allocates %.0f times, want at most %.0f", row.name, allocs, row.max)
			}
		})
	}
}
