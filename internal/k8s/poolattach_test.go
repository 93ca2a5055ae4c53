package k8s

import (
	"strings"
	"testing"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

func TestWarmPoolMemoryIsKubeletVisible(t *testing.T) {
	c := newTestCluster(t)
	node := c.Nodes[0]
	before := c.Metrics.TotalWorkloadBytes()
	if before != 0 {
		t.Fatalf("workload bytes before attach = %d", before)
	}

	att, err := node.AttachWarmPool("gw")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Wasmtime)
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetMemoryListener(att.Sync)

	want := simos.RoundPages(pool.MemoryBytes())
	if got := c.Metrics.TotalWorkloadBytes(); got != want {
		t.Fatalf("metrics-server sees %d pool bytes, want %d", got, want)
	}
	// The free vantage sees it too: pool memory is real node memory.
	if used := node.OS.UsedBeyondIdle(); used < want {
		t.Fatalf("free vantage sees %d, pool holds %d", used, want)
	}

	// A cold-started extra instance shows up while leased...
	wi, err := pool.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	grownWant := simos.RoundPages(pool.MemoryBytes())
	if grownWant <= want {
		t.Fatalf("pool memory did not grow on cold start")
	}
	if got := c.Metrics.TotalWorkloadBytes(); got != grownWant {
		t.Fatalf("metrics-server sees %d after cold start, want %d", got, grownWant)
	}
	// ...and is released again when the full pool discards it.
	pool.Release(wi, 0)
	if got := c.Metrics.TotalWorkloadBytes(); got != want {
		t.Fatalf("metrics-server sees %d after discard, want %d", got, want)
	}

	// Detach returns the node to its pre-pool state.
	pool.SetMemoryListener(nil)
	att.Detach()
	if got := c.Metrics.TotalWorkloadBytes(); got != 0 {
		t.Fatalf("workload bytes after detach = %d", got)
	}
}

// TestWarmPoolSharedArtifactsCountedOncePerNode: two pools serving the same
// module map its compiled code and baseline memory image via SyncShared, and
// the node charges each digest-keyed artifact once — only the per-instance
// private remainder scales with the number of pools.
func TestWarmPoolSharedArtifactsCountedOncePerNode(t *testing.T) {
	c := newTestCluster(t)
	node := c.Nodes[0]
	eng := engine.New(engine.Wasmtime)
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}

	newAttachedPool := func(name string) (*serve.Pool, *WarmPoolAttachment) {
		att, err := node.AttachWarmPool(name)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := serve.NewPool(eng, cm, serve.Config{Size: 2})
		if err != nil {
			t.Fatal(err)
		}
		var shared int64
		for _, art := range pool.SharedArtifacts() {
			att.SyncShared(art.Name, art.Bytes)
			shared += art.Bytes
		}
		att.Sync(pool.MemoryBytes() - shared)
		return pool, att
	}

	pool1, att1 := newAttachedPool("gw1")
	arts := pool1.SharedArtifacts()
	if arts[engine.ArtifactCode].Bytes <= 0 || arts[engine.ArtifactData].Bytes <= 0 || arts[engine.ArtifactTier1].Bytes != 0 {
		t.Fatalf("shared artifacts = %v, want code + baseline and no tier-1 yet", arts)
	}
	sharedBytes := simos.RoundPages(arts[engine.ArtifactCode].Bytes) + simos.RoundPages(arts[engine.ArtifactData].Bytes)
	used1 := node.OS.UsedBeyondIdle()
	if used1 < sharedBytes+att1.ChargedBytes() {
		t.Fatalf("free vantage %d misses artifacts (%d shared + %d private)",
			used1, sharedBytes, att1.ChargedBytes())
	}

	// A second pool of the same module adds only its private instance bytes:
	// the wasm-code and wasm-data mappings dedupe on their digest-keyed names.
	_, att2 := newAttachedPool("gw2")
	used2 := node.OS.UsedBeyondIdle()
	if delta := used2 - used1; delta != att2.ChargedBytes() {
		t.Fatalf("second pool cost %d, want private-only %d (shared artifacts recharged?)",
			delta, att2.ChargedBytes())
	}
	if att2.ChargedBytes() >= att1.ChargedBytes()+sharedBytes {
		t.Fatal("second pool's private charge swallowed the shared artifacts")
	}
}

// TestTier1ArtifactSharedOncePerNode: a module lowered to tier-1 code (eager
// policy, as after hotness tier-up) exposes a third digest-keyed artifact,
// wasm-t1:<digest>, and two pools of the module map it via SyncShared like
// compiled code and the baseline image — charged once per node.
func TestTier1ArtifactSharedOncePerNode(t *testing.T) {
	c := newTestCluster(t)
	node := c.Nodes[0]
	eng := engine.New(engine.Wasmtime)
	eng.SetTierPolicy(exec.TierPolicy{Mode: exec.TierModeEager})
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	t1Bytes := cm.Code.Tier1Bytes()
	if t1Bytes <= 0 {
		t.Fatal("eager policy did not publish a tier-1 artifact")
	}

	attach := func(name string) *WarmPoolAttachment {
		att, err := node.AttachWarmPool(name)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := serve.NewPool(eng, cm, serve.Config{Size: 2})
		if err != nil {
			t.Fatal(err)
		}
		arts := pool.SharedArtifacts()
		if t1 := arts[engine.ArtifactTier1]; !strings.HasPrefix(t1.Name, "wasm-t1:") || t1.Bytes != t1Bytes {
			t.Fatalf("shared artifacts = %v, want a %d-byte wasm-t1 after code + baseline", arts, t1Bytes)
		}
		var shared int64
		for _, art := range arts {
			att.SyncShared(art.Name, art.Bytes)
			shared += art.Bytes
		}
		att.Sync(pool.MemoryBytes() - shared)
		return att
	}

	att1 := attach("gw1")
	used1 := node.OS.UsedBeyondIdle()
	// Second pool of the same module: the tier-1 mapping (like code and
	// baseline) dedupes on its digest-keyed name; only private bytes add up.
	att2 := attach("gw2")
	if delta := node.OS.UsedBeyondIdle() - used1; delta != att2.ChargedBytes() {
		t.Fatalf("second pool cost %d, want private-only %d (tier-1 recharged?)",
			delta, att2.ChargedBytes())
	}
	_ = att1
}

// TestMemoryPressureDrainsWarmPools: a node-level memory-pressure episode
// reclaims every attached pool's idle instances through the registered
// drainers, and the freed bytes leave the cluster's memory accounting in the
// same step — warm capacity is given back before any pod would have to fail.
func TestMemoryPressureDrainsWarmPools(t *testing.T) {
	c := newTestCluster(t)
	node := c.Nodes[0]
	att, err := node.AttachWarmPool("gw")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Wasmtime)
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetMemoryListener(att.Sync)
	att.SetDrainer(func() int { return pool.DrainIdle(0) })

	full := c.Metrics.TotalWorkloadBytes()
	if full == 0 || pool.Idle() != 4 {
		t.Fatalf("pool not charged before pressure: bytes=%d idle=%d", full, pool.Idle())
	}
	if n := node.MemoryPressure(); n != 4 {
		t.Fatalf("pressure evicted %d instances, want 4", n)
	}
	if pool.Idle() != 0 {
		t.Fatalf("idle = %d after pressure drain", pool.Idle())
	}
	drained := c.Metrics.TotalWorkloadBytes()
	if drained >= full {
		t.Fatalf("cluster accounting unchanged by drain: %d -> %d", full, drained)
	}
	// A second episode finds nothing left to reclaim.
	if n := node.MemoryPressure(); n != 0 {
		t.Fatalf("second pressure episode evicted %d", n)
	}
	// Detached pools no longer answer pressure.
	att.SetDrainer(func() int { t.Error("detached pool drained"); return 0 })
	pool.SetMemoryListener(nil)
	att.Detach()
	node.MemoryPressure()
}

func TestWarmPoolAttachmentPageRounding(t *testing.T) {
	c := newTestCluster(t)
	att, err := c.Nodes[0].AttachWarmPool("rounding")
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	att.Sync(1) // one byte still occupies one page
	if got := att.ChargedBytes(); got != simos.RoundPages(1) {
		t.Fatalf("charged %d, want one page", got)
	}
	att.Sync(0)
	if got := att.ChargedBytes(); got != 0 {
		t.Fatalf("charged %d after sync to zero", got)
	}
}

// TestObserverHandlesFollowTelemetry: what a component reports follows the
// telemetry SetObserver was last given — there is no handle list beside
// Stats() to drift. Wiring a dispatcher (and through it its pool), a cache, a
// router and an attachment twice to the same telemetry doubles nothing,
// re-wiring to a second telemetry moves every series there, and
// SetObserver(nil) removes them. The cache reports the tier-1 share as soon
// as an eager compile publishes the artifact.
func TestObserverHandlesFollowTelemetry(t *testing.T) {
	eng := engine.New(engine.WAMR)
	eng.SetTierPolicy(exec.TierPolicy{Mode: exec.TierModeEager})
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := des.NewEngine()
	disp := serve.NewDispatcher(sim, pool, serve.DispatcherConfig{Export: "handle", Arg: 64})
	router := serve.NewRouter(sim, serve.RouterConfig{})
	if err := router.Register("key", "request-handler", disp); err != nil {
		t.Fatal(err)
	}
	att, err := newTestCluster(t).Nodes[0].AttachWarmPool("gw")
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	att.SetDrainer(func() int { return 3 })
	pool.SetMemoryListener(att.Sync)
	wire := func(tele *obs.Telemetry) {
		eng.SetObserver(tele) // the engine wires its cache
		disp.SetObserver(tele)
		router.SetObserver(tele)
		att.SetObserver(tele)
	}

	first, second := obs.New(obs.Config{}), obs.New(obs.Config{})
	wire(first)
	wire(first)
	if err := router.Submit("key", 0, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	att.Drain()
	want := map[string]int64{
		"dispatch_submitted_total": 1,
		"dispatch_completed_total": 1,
		"dispatch_in_flight":       0,
		"pool_warm_hits_total":     1,
		"pool_idle_instances":      2,
		"pool_memory_bytes":        pool.MemoryBytes(),
		"modcache_misses_total":    1,
		"modcache_tier1_bytes":     cm.Code.Tier1Bytes(),
		"router_batches_total":     1,
		"router_shards":            1,
		obs.Labeled("router_completed_total", "module", "request-handler"): 1,
		obs.Labeled("warmpool_pressure_evictions_total", "pool", "gw"):     3,
		obs.Labeled("warmpool_charged_bytes", "pool", "gw"):                att.ChargedBytes(),
	}
	if want["modcache_tier1_bytes"] <= 0 || want["pool_memory_bytes"] <= 0 {
		t.Fatalf("fixture reports nothing to mirror: %+v", want)
	}
	check := func(stage string, tele *obs.Telemetry, present bool) {
		t.Helper()
		got := scraped(tele)
		for name, v := range want {
			g, ok := got[name]
			if ok != present || (present && g != v) {
				t.Errorf("%s: %s = %d (present %v), want %d (present %v)", stage, name, g, ok, v, present)
			}
		}
	}
	check("wired twice", first, true)
	wire(second)
	check("re-wired, old telemetry", first, false)
	check("re-wired, new telemetry", second, true)
	wire(nil)
	check("unwired", second, false)
}
