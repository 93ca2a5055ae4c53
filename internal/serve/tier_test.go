package serve

import (
	"strings"
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/wasm/exec"
)

// TestWarmPoolPicksUpTier1: a warm pool serving repeated requests crosses the
// hotness threshold, the shared module tiers up once, and every pooled
// instance serves subsequent invokes from the tier-1 body — visible as a
// cheaper simulated invoke time at identical instruction counts, with the
// artifact charged to pool memory exactly once.
func TestWarmPoolPicksUpTier1(t *testing.T) {
	pool := newTestPoolPolicy(t, engine.WAMR, Config{Size: 2}, exec.DefaultTierPolicy())
	memBefore := pool.MemoryBytes()

	// The hotness policy tiers the module up after its eighth invoke.
	var t0Sim, t1Sim int64
	var t0Instr, t1Instr uint64
	for i := 0; i < 12; i++ {
		wi, ok := pool.Acquire(0)
		if !ok {
			t.Fatalf("request %d: pool dry", i)
		}
		res, err := wi.Invoke("handle", exec.I32(16))
		if err != nil {
			t.Fatal(err)
		}
		switch res.Tier {
		case 0:
			t0Sim, t0Instr = res.SimulatedExecTime.Nanoseconds(), res.Instructions
		case 1:
			t1Sim, t1Instr = res.SimulatedExecTime.Nanoseconds(), res.Instructions
		}
		pool.Release(wi, 0)
	}
	if t0Instr == 0 || t1Instr == 0 {
		t.Fatalf("did not observe both tiers (t0 instr %d, t1 instr %d)", t0Instr, t1Instr)
	}
	// Identical request, identical retired instructions — tier 1 only changes
	// the per-instruction rate (WAMR's Tier1Speedup is 2.5).
	if t0Instr != t1Instr {
		t.Fatalf("instruction counts diverged across tiers: %d vs %d", t0Instr, t1Instr)
	}
	if t1Sim*2 >= t0Sim {
		t.Fatalf("tier-1 sim time %dns not visibly below tier-0 %dns", t1Sim, t0Sim)
	}

	// The artifact is charged once, not per instance.
	t1 := pool.SharedArtifacts()[engine.ArtifactTier1]
	if !strings.HasPrefix(t1.Name, "wasm-t1:") || t1.Bytes <= 0 {
		t.Fatalf("no tier-1 artifact accounted: %v", pool.SharedArtifacts())
	}
	if delta := pool.MemoryBytes() - memBefore; delta != t1.Bytes {
		t.Fatalf("pool memory grew %d, want exactly one tier-1 artifact %d", delta, t1.Bytes)
	}
}
