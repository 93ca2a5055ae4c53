package cache

import (
	"testing"

	"wasmcontainers/internal/wasm/exec"
)

// tierUp force-lowers the entry's tier-1 body and records it in the cache,
// the way an engine tier-up listener would.
func tierUp(t *testing.T, c *Cache, e *Entry) {
	t.Helper()
	if _, ok := e.Code.EnsureTier1(); !ok && e.Code.Tier1Bytes() == 0 {
		t.Fatal("tier-up produced no artifact")
	}
	c.NoteTier1(e)
}

// callRun invokes the test module's "run" export on a fresh instance and
// returns the result plus the tier that served the call.
func callRun(t *testing.T, e *Entry, arg int32) (int32, int) {
	t.Helper()
	s := exec.NewStore(exec.Config{})
	inst, err := s.InstantiateCompiled(e.Code, "")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := inst.Call("run", exec.I32(arg))
	if err != nil {
		t.Fatal(err)
	}
	return exec.AsI32(vals[0]), s.LastInvokeTier()
}

func TestTier1NoteChargesOncePerArtifact(t *testing.T) {
	c := New(0)
	e, err := c.Load(modBinary(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	tierUp(t, c, e)
	st := c.Stats()
	if st.Tier1Bytes != e.Code.Tier1Bytes() || st.Tier1Bytes <= 0 {
		t.Fatalf("tier1 bytes = %d, want %d > 0", st.Tier1Bytes, e.Code.Tier1Bytes())
	}
	if st.Entries != 1 || st.Bytes != e.Cost()+st.Tier1Bytes {
		t.Fatalf("stats = %+v: tier-up must re-cost the module's one entry", st)
	}
	// Re-noting the same artifact is a touch, not a second charge.
	c.NoteTier1(e)
	if st2 := c.Stats(); st2 != st {
		t.Fatalf("re-note stats = %+v, want %+v", st2, st)
	}
}

// Eviction only forgets: a live instance of an evicted, tiered module keeps
// executing at tier 1 with unchanged results and instruction counts, the
// cache's books drop the whole entry (tier-1 share included), and a re-Load
// recompiles a fresh entry that tiers up cleanly.
func TestEvictionKeepsHoldersAtTier1(t *testing.T) {
	c := New(1) // tiny bound: only the most recently used entry stays
	e1, err := c.Load(modBinary(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	tierUp(t, c, e1)
	s := exec.NewStore(exec.Config{})
	inst, err := s.InstantiateCompiled(e1.Code, "")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int32, uint64) {
		t.Helper()
		before := s.InstructionCount()
		vals, err := inst.Call("run", exec.I32(41))
		if err != nil {
			t.Fatal(err)
		}
		if s.LastInvokeTier() != 1 {
			t.Fatalf("served at tier %d, want 1", s.LastInvokeTier())
		}
		return exec.AsI32(vals[0]), s.InstructionCount() - before
	}
	want, wantInstr := run()

	e2, err := c.Load(modBinary(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 || st.Tier1Bytes != 0 || st.Bytes != e2.Cost() {
		t.Fatalf("stats after eviction = %+v, want module 1 forgotten with its tier-1 share", st)
	}
	if e1.Code.Tier1Bytes() == 0 {
		t.Fatal("eviction unpublished the tier-1 artifact under a holder")
	}
	if got, instr := run(); got != want || instr != wantInstr {
		t.Fatalf("post-eviction run = %d in %d instrs, want %d in %d", got, instr, want, wantInstr)
	}
	// A late note for the forgotten entry must not resurrect its charge.
	c.NoteTier1(e1)
	if st := c.Stats(); st.Tier1Bytes != 0 || st.Bytes != e2.Cost() {
		t.Fatalf("note after eviction charged a forgotten entry: %+v", st)
	}

	e1b, err := c.Load(modBinary(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e1b == e1 || e1b.Code.Tier1Bytes() != 0 {
		t.Fatal("re-Load did not recompile a fresh, untiered entry")
	}
	tierUp(t, c, e1b)
	if st := c.Stats(); st.Misses != 3 || st.Tier1Bytes != e1b.Code.Tier1Bytes() || st.Tier1Bytes <= 0 {
		t.Fatalf("re-tier-up stats = %+v", st)
	}
	if got, tier := callRun(t, e1b, 41); got != want || tier != 1 {
		t.Fatalf("re-tiered run = %d on tier %d, want %d on tier 1", got, tier, want)
	}
}
