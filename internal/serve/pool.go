// Package serve is an in-process Wasm function gateway: warm instance pools
// that amortize the per-engine cold-start cost the paper measures, a request
// dispatcher with bounded queues and admission control, and a deterministic
// open-loop load generator driven by the discrete-event simulator. It turns
// the repository from a system that only *boots* containers into one that
// serves sustained request traffic, making the cold-start/warm-reuse
// trade-off of standalone Wasm runtimes directly measurable with the same
// engine profiles and memory accounting the density experiments use.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/wasm/exec"
)

// Config shapes one warm pool.
type Config struct {
	// Size is the number of warm instances the pool keeps ready. Instances
	// created by cold-start fallbacks are recycled into the pool only while
	// it holds fewer than Size idle instances; Size 0 therefore means
	// cold-only serving.
	Size int
	// IdleTTL evicts warm instances that have sat idle this long in
	// simulated time; 0 keeps them forever. Eviction keeps pool memory
	// honest in the same accounting the density experiments read.
	IdleTTL time.Duration
}

// Stats counts pool traffic.
type Stats struct {
	// WarmHits is the number of Acquire calls served from the pool.
	WarmHits int64
	// ColdStarts is the number of dry-pool fallback instantiations.
	ColdStarts int64
	// Recycled counts instances returned to the pool after a request.
	Recycled int64
	// Discarded counts instances dropped at release because the pool was
	// already full (Size instances idle).
	Discarded int64
	// Evicted counts idle instances dropped by the TTL sweep.
	Evicted int64
	// ResetPages counts the dirty pages copied back by Release's
	// copy-on-write resets: the total reset work, proportional to pages
	// touched by requests rather than to memory size.
	ResetPages int64
}

// WarmInstance is one pooled (or cold-started) live instance. It must be
// used by one request at a time; the pool hands it out exclusively between
// Acquire/ColdStart and Release. Instances hold no private reset snapshot:
// all instances of the pool's module alias one shared baseline image, and
// Release copies back only the pages a request dirtied. The engine Instance
// is held inline, and holds its store: a warm instance is this record and
// its function block.
type WarmInstance struct {
	inst engine.Instance
	// footprint is the accounted bytes while idle (engine per-instance state;
	// private dirty pages are zero after a reset).
	footprint int64
	// lastUsed is the simulated release time, for TTL eviction.
	lastUsed des.Time
	// cold marks instances created by a dry-pool fallback.
	cold bool
	// tid is the trace track of the request holding the instance, set by
	// the dispatcher after Acquire/ColdStart and cleared by Release, whose
	// "reset" span it puts on the request's own track — so a tail-sampled
	// tracer decides it with the rest of the request. 0 (a caller that
	// assigns no tracks) keeps the span on the unsampled track.
	tid int64
}

// Invoke calls the instance's exported function (real execution).
func (w *WarmInstance) Invoke(export string, args ...exec.Value) (engine.InvokeResult, error) {
	return w.inst.Invoke(export, args...)
}

// Cold reports whether this instance came from a cold-start fallback.
func (w *WarmInstance) Cold() bool { return w.cold }

// Pool pre-instantiates N instances of one module under one engine profile
// and recycles them across requests. It is safe for concurrent use: distinct
// warm instances own distinct stores, so many goroutines may each hold one.
type Pool struct {
	mu     sync.Mutex
	eng    *engine.Engine
	cm     *engine.CompiledModule
	cfg    Config
	idle   []*WarmInstance
	leased int

	memBytes  int64
	highWater int64
	onMem     func(int64)
	// shared is the pool's charged view of cm.SharedArtifacts(): the bytes
	// of each write-once artifact already in memBytes (code from the start,
	// the baseline image once a first instance captured it — a cold-only
	// pool that never instantiates charges no guest memory at all — and
	// tier-1 code after tier-up). Written under mu; atomic so the memory
	// listener (lock held) and outside observers read it without locking.
	shared [3]atomic.Int64

	stats Stats

	// Telemetry. Counters and gauges are the fields above, read by the source
	// SetObserver registers; the histogram and the tracer have no second copy
	// and stay handles, nil when observation is disabled (nil handles no-op
	// without allocating; the tracer needs an explicit nil check at span call
	// sites).
	tele          *obs.Telemetry
	obsResetPages *obs.Histogram
	obsTracer     *obs.Tracer
}

// SetObserver wires telemetry into the pool: a metric source reporting
// Stats() as the pool_*_total counters and the idle/leased/memory figures as
// gauges (summed over every pool on one telemetry), a reset-dirty-pages
// histogram, and a "reset" span per Release carrying the dirty-page count. A
// second call moves the source; nil disables (the default), and the disabled
// path costs a nil check per event and no allocations.
func (p *Pool) SetObserver(t *obs.Telemetry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tele.Metrics().SetSource(p, nil)
	p.tele = t
	t.Metrics().SetSource(p, p.collect)
	p.obsResetPages = t.Histogram("pool_reset_dirty_pages")
	p.obsTracer = t.Tracer()
}

// collect is the pool's metric source: one consistent read under the lock.
func (p *Pool) collect(counter, gauge func(string, int64)) {
	p.mu.Lock()
	st, idle, leased, mem := p.stats, len(p.idle), p.leased, p.memBytes
	p.mu.Unlock()
	counter("pool_warm_hits_total", st.WarmHits)
	counter("pool_cold_starts_total", st.ColdStarts)
	counter("pool_recycled_total", st.Recycled)
	counter("pool_discarded_total", st.Discarded)
	counter("pool_evicted_total", st.Evicted)
	gauge("pool_idle_instances", int64(idle))
	gauge("pool_leased_instances", int64(leased))
	gauge("pool_memory_bytes", mem)
}

// NewPool compiles nothing itself: cm must come from eng.Compile. It
// pre-instantiates cfg.Size warm instances through the real
// engine.Instantiate path. The module's compiled-code artifact and its
// baseline memory image are each charged to pool memory exactly once: every
// instance references the same immutable ModuleCode and aliases the same
// baseline image, and is individually charged only its engine-side state
// plus the pages it has dirtied, mirroring the paper's shared-read-only-state
// accounting.
func NewPool(eng *engine.Engine, cm *engine.CompiledModule, cfg Config) (*Pool, error) {
	p := &Pool{eng: eng, cm: cm, cfg: cfg, idle: make([]*WarmInstance, 0, cfg.Size)}
	p.mu.Lock()
	p.syncSharedLocked()
	p.mu.Unlock()
	for i := 0; i < cfg.Size; i++ {
		wi, err := p.newInstance(false)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.idle = append(p.idle, wi)
		p.mu.Unlock()
	}
	return p, nil
}

// Engine returns the pool's engine.
func (p *Pool) Engine() *engine.Engine { return p.eng }

// TargetSize is the pool's current warm-size target.
func (p *Pool) TargetSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.Size
}

// Resize retargets the warm size — the autoscaler's lever. Growing
// pre-instantiates enough idle instances (through the real engine path, not
// counted as cold starts: this is proactive warming) to bring idle + leased
// up to the new target; shrinking drops surplus idle instances immediately,
// counting them as evictions, and lets Release's recycle check enforce the
// smaller target as leases return. Returns the net instance delta applied.
func (p *Pool) Resize(n int) (int, error) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	p.cfg.Size = n
	kept := 0
	delta := -p.dropIdleLocked(func(*WarmInstance) bool {
		kept++
		return kept <= n
	})
	want := n - len(p.idle) - p.leased
	p.mu.Unlock()
	for i := 0; i < want; i++ {
		wi, err := p.newInstance(false)
		if err != nil {
			return delta, err
		}
		p.mu.Lock()
		p.idle = append(p.idle, wi)
		p.mu.Unlock()
		delta++
	}
	return delta, nil
}

// newInstance instantiates and accounts one instance (not yet idle). The
// first instantiation also captures the module's baseline image, charged
// once for the pool's lifetime.
func (p *Pool) newInstance(cold bool) (*WarmInstance, error) {
	wi := &WarmInstance{cold: cold}
	if err := p.eng.InstantiateInto(&wi.inst, p.cm); err != nil {
		return nil, err
	}
	wi.footprint = wi.inst.FootprintBytes()
	p.mu.Lock()
	p.syncSharedLocked()
	p.addMemLocked(wi.footprint)
	p.mu.Unlock()
	return wi, nil
}

// syncSharedLocked is the one place shared artifacts enter pool memory: it
// charges whatever the module has published since the last look, once per
// artifact no matter how many instances pick it up. Artifacts are write-once,
// so the charge only ever grows.
func (p *Pool) syncSharedLocked() {
	var grown int64
	for i, a := range p.cm.SharedArtifacts() {
		grown += a.Bytes - p.shared[i].Swap(a.Bytes)
	}
	if grown != 0 {
		p.addMemLocked(grown)
	}
}

// addMemLocked adjusts accounted memory, tracks the high-water mark, and
// notifies the listener. Callers hold p.mu; the listener must not call back
// into the pool.
func (p *Pool) addMemLocked(delta int64) {
	p.memBytes += delta
	if p.memBytes > p.highWater {
		p.highWater = p.memBytes
	}
	if p.onMem != nil {
		p.onMem(p.memBytes)
	}
}

// SetMemoryListener registers fn to observe every accounted-memory change
// (and immediately with the current figure). internal/k8s uses this to
// mirror pool bytes into a node's cgroup hierarchy so pooled instances are
// kubelet-visible. fn runs with the pool lock held and must not call back
// into the pool.
func (p *Pool) SetMemoryListener(fn func(int64)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onMem = fn
	if fn != nil {
		fn(p.memBytes)
	}
}

// Acquire pops a warm instance, most-recently-used first (so the least
// recently used ones age toward the TTL). It reports false when the pool is
// dry; callers then fall back to ColdStart. now drives the lazy TTL sweep.
func (p *Pool) Acquire(now des.Time) (*WarmInstance, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.evictIdleLocked(now)
	if len(p.idle) == 0 {
		return nil, false
	}
	wi := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	p.leased++
	p.stats.WarmHits++
	return wi, true
}

// ColdStart is the dry-pool fallback: a real engine.Instantiate, leased to
// the caller like an Acquire'd instance. The caller pays the engine's
// ColdStartCost in simulated latency.
func (p *Pool) ColdStart() (*WarmInstance, error) {
	wi, err := p.newInstance(true)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.leased++
	p.stats.ColdStarts++
	p.mu.Unlock()
	return wi, nil
}

// Release returns a leased instance. Linear memory is rewound to the shared
// baseline image by copying back only the pages the request dirtied — no
// guest state survives, and reset cost scales with pages touched, not memory
// size — then the instance is recycled into the pool if it has room (fewer
// than Size idle), otherwise discarded. Pages the request privatized
// (dirtied or grew) are peak-accounted and released with the reset.
func (p *Pool) Release(wi *WarmInstance, now des.Time) {
	private := wi.inst.FootprintBytes() - wi.footprint
	resetPages := wi.inst.ResetToBaseline()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncSharedLocked()
	p.stats.ResetPages += int64(resetPages)
	p.obsResetPages.Record(int64(resetPages))
	if p.obsTracer != nil {
		p.obsTracer.Span("reset", "pool", wi.tid, int64(now), int64(now),
			obs.I64("dirty_pages", int64(resetPages)),
			obs.I64("private_bytes", private))
	}
	if private > 0 {
		// Peak accounting for pages the request privatized, released by the
		// copy-on-write reset.
		p.addMemLocked(private)
		p.addMemLocked(-private)
	}
	p.leased--
	wi.lastUsed = now
	wi.tid = 0
	if len(p.idle) < p.cfg.Size {
		wi.cold = false
		p.idle = append(p.idle, wi)
		p.stats.Recycled++
		return
	}
	p.stats.Discarded++
	p.addMemLocked(-wi.footprint)
}

// evictIdleLocked drops idle instances whose last use is more than IdleTTL
// before now.
func (p *Pool) evictIdleLocked(now des.Time) {
	if p.cfg.IdleTTL <= 0 {
		return
	}
	cutoff := now - des.Time(p.cfg.IdleTTL)
	p.dropIdleLocked(func(wi *WarmInstance) bool { return wi.lastUsed >= cutoff })
}

// dropIdleLocked is the pool's one eviction loop: every idle instance keep
// turns down (asked oldest first) leaves the pool, is counted Evicted, and
// gives its footprint back. Returns how many were dropped.
func (p *Pool) dropIdleLocked(keep func(*WarmInstance) bool) int {
	kept := p.idle[:0]
	for _, wi := range p.idle {
		if keep(wi) {
			kept = append(kept, wi)
			continue
		}
		p.stats.Evicted++
		p.addMemLocked(-wi.footprint)
	}
	evicted := len(p.idle) - len(kept)
	clear(p.idle[len(kept):])
	p.idle = kept
	return evicted
}

// DrainIdle immediately evicts every idle instance regardless of IdleTTL —
// the memory-pressure response: idle warm capacity is the cheapest memory a
// node can reclaim before it has to start failing pods. Leased instances are
// untouched; subsequent requests fall back to cold starts until Release
// refills the pool. Returns how many instances were dropped.
func (p *Pool) DrainIdle(now des.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	evicted := p.dropIdleLocked(func(*WarmInstance) bool { return false })
	if evicted > 0 && p.obsTracer != nil {
		p.obsTracer.Span("pressure-drain", "pool", 0, int64(now), int64(now),
			obs.I64("evicted", int64(evicted)))
	}
	return evicted
}

// Idle returns the number of instances currently waiting in the pool.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Leased returns the number of instances currently out serving requests.
func (p *Pool) Leased() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leased
}

// SharedArtifacts is the pool's charged view of its module's node-shared
// artifacts (engine.CompiledModule.SharedArtifacts): the same names, with the
// bytes the pool has already folded into MemoryBytes — so a memory listener
// can split every total it is handed into shared and private without ever
// seeing an artifact the total does not cover yet. internal/k8s maps these
// as shared mappings so several pools (or container runtimes) of one module
// on a node account each artifact once. Lock-free and allocation-free.
func (p *Pool) SharedArtifacts() [3]engine.SharedArtifact {
	arts := p.cm.SharedArtifacts()
	for i := range arts {
		arts[i].Bytes = p.shared[i].Load()
	}
	return arts
}

// MemoryBytes is the currently accounted pool memory (one shared compiled
// artifact, one shared baseline image, plus idle + leased instances: engine
// per-instance state and private dirty pages).
func (p *Pool) MemoryBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.memBytes
}

// HighWater is the peak accounted pool memory.
func (p *Pool) HighWater() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.highWater
}

// Stats returns a snapshot of the traffic counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
