package engine

import (
	"testing"

	"wasmcontainers/internal/workloads"
)

// instSink keeps each Instance live, as a caller holding it would.
var instSink *Instance

// TestInstantiateAllocs pins what one warm instance of a cached module costs
// the engine: the store carries the instance and its memory in one
// allocation, the functions take one block, and the engine's Instance is the
// third. A memory that aliases the module's baseline image allocates nothing
// for its bytes. Before co-allocation it was nine: the store, its two empty
// maps, the instance, a one-element function slice and its function, the
// memory, its dirty bitmap and the engine's Instance.
func TestInstantiateAllocs(t *testing.T) {
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WAMR)
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
	})
	t.Logf("Instantiate(request-handler), cached: %.0f allocs", allocs)
	if allocs > 3 {
		t.Fatalf("Instantiate of a cached request-handler allocates %.0f times, want at most 3", allocs)
	}
}
