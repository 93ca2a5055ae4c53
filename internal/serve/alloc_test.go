package serve

import (
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/workloads"
)

// TestNewPoolAllocs pins pool fill, once the largest allocation cluster of a
// cold deploy: NewPool of four warm instances of a compiled request-handler
// is the Pool, its idle slice (sized up front) and two allocations per warm
// instance — the WarmInstance holding its engine.Instance, which holds the
// store, the exec instance and its memory; and the function block. It was
// 44 at ten per instance and 14 at three.
func TestNewPoolAllocs(t *testing.T) {
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WAMR)
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool(eng, cm, Config{Size: 4}); err != nil { // publishes the baseline image
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewPool(eng, cm, Config{Size: 4}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewPool(Size 4) of request-handler: %.0f allocs", allocs)
	if allocs > 10 {
		t.Fatalf("NewPool(Size 4) allocates %.0f times, want at most 10", allocs)
	}
}
