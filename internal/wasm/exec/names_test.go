package exec_test

import (
	"sync"
	"testing"

	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/wat"
)

// TestConcurrentTrapLabels: instances of one ModuleCode in separate stores
// trap at once, and every trap names its frames from the module's name
// section, which the ModuleCode decodes once for all of them (meant for
// -race).
func TestConcurrentTrapLabels(t *testing.T) {
	m, err := wat.Compile(`(module
  (func $inner unreachable)
  (func $outer (export "run") call $inner))`)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := exec.Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := exec.NewStore(exec.Config{}).InstantiateCompiled(mc, "")
			if err != nil {
				t.Error(err)
				return
			}
			_, err = inst.Call("run")
			trap, ok := err.(*exec.Trap)
			if !ok || len(trap.Frames) != 2 || trap.Frames[0] != "$inner" || trap.Frames[1] != "$outer" {
				t.Errorf("trap = %v, want frames [$inner $outer]", err)
			}
		}()
	}
	wg.Wait()
}
