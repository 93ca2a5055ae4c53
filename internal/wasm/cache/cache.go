// Package cache provides a content-addressed cache of compiled WebAssembly
// modules. Entries are keyed by the SHA-256 of the module binary and hold the
// decoded+validated module together with its precompiled executable code
// (exec.ModuleCode), both immutable and shared by reference — so N instances
// of the same module decode, validate, and compile exactly once and charge
// one copy of compiled-code bytes, the mechanism behind the paper's
// shared-runtime-code memory accounting for warm pools and high pod density.
//
// The cache is safe for concurrent use. Concurrent loads of the same binary
// are deduplicated singleflight-style: one goroutine compiles while the rest
// wait for its result. Resident entries are bounded by bytes with LRU
// eviction. Eviction only forgets: an evicted entry stays valid for holders
// of its pointer — code, baseline image and tier-1 artifact included — and is
// simply recompiled on the next load.
package cache

import (
	"crypto/sha256"
	"sync"
	"time"

	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
)

// Digest is the content address of a module binary.
type Digest = [sha256.Size]byte

// Entry is one cached compilation: the decoded module and its compiled code.
// The code's shared artifacts are write-once, so an Entry never loses
// anything a holder can observe.
type Entry struct {
	Digest  Digest
	BinSize int64
	Module  *wasm.Module
	Code    *exec.ModuleCode

	// t1 is the tier-1 bytes this entry charges, 0 until NoteTier1; guarded
	// by the owning cache's mutex so charge and discharge always match.
	t1 int64
	// prev and next link the entry into its cache's LRU ring while it is
	// resident (nil once evicted), under the cache's mutex.
	prev, next *Entry
}

// Cost is the bytes a freshly compiled entry charges against the cache
// bound: the compiled code plus the decoded module (approximated by its
// binary size, which the decoded structures reference). Tier-up adds the
// tier-1 artifact to the same LRU node (NoteTier1).
func (e *Entry) Cost() int64 { return e.Code.CodeBytes() + e.BinSize }

// Stats is a snapshot of cache counters: a hit is a Load served without
// compiling, a miss is a compile.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64

	// Entries counts resident modules; Bytes is their total charged cost, of
	// which Tier1Bytes is the tier-1 share.
	Entries    int
	Bytes      int64
	Tier1Bytes int64
	MaxBytes   int64
}

// slot is an in-flight compile other loaders can wait on: done is released
// once entry and err are set.
type slot struct {
	done  sync.WaitGroup
	entry *Entry
	err   error
}

// Cache is a byte-bounded, content-addressed compiled-module cache.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	t1bytes  int64
	entries  map[Digest]*Entry
	// lru is the sentinel of the resident entries' ring: lru.next is the
	// most recently used, lru.prev the least.
	lru   Entry
	slots map[Digest]*slot

	hits, misses, evictions uint64

	// Telemetry. Counters and gauges are Stats(), read by the source
	// SetObserver registers; the histogram and the tracer stay handles, nil
	// when observation is disabled (a nil histogram no-ops without
	// allocating; the tracer needs an explicit nil check at span call sites).
	tele         *obs.Telemetry
	obsCompileNs *obs.Histogram
	obsTracer    *obs.Tracer
}

// New creates a cache bounded to maxBytes of entry cost. maxBytes <= 0 means
// unbounded.
func New(maxBytes int64) *Cache {
	c := &Cache{
		maxBytes: maxBytes,
		entries:  make(map[Digest]*Entry),
		slots:    make(map[Digest]*slot),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// pushFrontLocked links e in as the most recently used entry.
func (c *Cache) pushFrontLocked(e *Entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlinkLocked takes e out of the ring.
func (c *Cache) unlinkLocked(e *Entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// touchLocked makes e the most recently used entry.
func (c *Cache) touchLocked(e *Entry) {
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// SetObserver wires telemetry into the cache: a metric source reporting
// Stats() as the modcache_* hit/miss/eviction counters and resident-bytes
// gauges (total and the tier-1 share), a compile-time histogram, and
// module-load spans with the decode/validate/lower phase split. A cache
// several engines share is wired by each and still reports once: a second
// call replaces (or moves) the source. Pass nil to disable (the default).
func (c *Cache) SetObserver(t *obs.Telemetry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tele.Metrics().RemoveSource(c)
	c.tele = t
	t.Metrics().AddSource(c)
	c.obsCompileNs = t.Histogram("modcache_compile_wall_ns")
	c.obsTracer = t.Tracer()
}

// Collect is the cache's metric source (obs.Source).
func (c *Cache) Collect(counter, gauge func(string, int64)) {
	st := c.Stats()
	counter("modcache_hits_total", int64(st.Hits))
	counter("modcache_misses_total", int64(st.Misses))
	counter("modcache_evictions_total", int64(st.Evictions))
	gauge("modcache_resident_bytes", st.Bytes)
	gauge("modcache_tier1_bytes", st.Tier1Bytes)
}

// Load returns the compiled entry for bin, compiling it at most once no
// matter how many goroutines ask concurrently. Failed compiles are not
// cached: every waiter receives the error and a later Load retries.
func (c *Cache) Load(bin []byte) (*Entry, error) {
	digest := sha256.Sum256(bin)
	c.mu.Lock()
	if e, ok := c.entries[digest]; ok {
		c.touchLocked(e)
		c.hits++
		hitTracer := c.obsTracer
		c.mu.Unlock()
		if hitTracer != nil {
			now := hitTracer.Now()
			hitTracer.Span("module-load", "cache", 0, now, now, obs.I64("cache_hit", 1))
		}
		return e, nil
	}
	if sl, ok := c.slots[digest]; ok {
		// Someone is compiling this binary right now: wait for their result.
		c.hits++
		c.mu.Unlock()
		sl.done.Wait()
		return sl.entry, sl.err
	}
	sl := &slot{}
	sl.done.Add(1)
	c.slots[digest] = sl
	c.misses++
	tracer := c.obsTracer
	c.mu.Unlock()

	// Span timestamps come from the tracer clock (simulated time under the
	// DES); the wall-clock nanoseconds ride along as span attributes and a
	// histogram sample, since compilation is real work even when the
	// surrounding timeline is simulated.
	var start int64
	if tracer != nil {
		start = tracer.Now()
	}
	e, ph, err := compile(bin, digest)
	if err == nil && tracer != nil {
		wall := ph.decode + ph.validate + ph.lower
		c.obsCompileNs.Record(wall.Nanoseconds())
		tracer.Span("module-load", "cache", 0, start, tracer.Now(),
			obs.I64("cache_hit", 0),
			obs.I64("decode_wall_ns", ph.decode.Nanoseconds()),
			obs.I64("validate_wall_ns", ph.validate.Nanoseconds()),
			obs.I64("lower_wall_ns", ph.lower.Nanoseconds()),
			obs.I64("wall_ns", wall.Nanoseconds()),
			obs.I64("bin_bytes", int64(len(bin))))
	}

	c.mu.Lock()
	delete(c.slots, digest)
	sl.entry, sl.err = e, err
	if err == nil {
		c.entries[digest] = e
		c.pushFrontLocked(e)
		c.bytes += e.Cost()
		c.evictLocked()
	}
	c.mu.Unlock()
	sl.done.Done()
	return e, err
}

// NoteTier1 re-costs e's LRU node after tier-up: like compiled code and the
// baseline image, tier-1 code is charged once per node against the same byte
// bound no matter how many instances run it. An entry the cache has already
// evicted is left alone — its holders keep running at tier 1, the cache just
// no longer accounts it. Call it from a tier-up listener.
func (c *Cache) NoteTier1(e *Entry) {
	t1 := e.Code.Tier1Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.Digest] != e {
		return
	}
	c.bytes += t1 - e.t1
	c.t1bytes += t1 - e.t1
	e.t1 = t1
	c.touchLocked(e)
	c.evictLocked()
}

// phases is the wall time of each compile stage.
type phases struct{ decode, validate, lower time.Duration }

// compile runs the full pipeline outside the cache lock, timing each phase.
func compile(bin []byte, digest Digest) (*Entry, phases, error) {
	var ph phases
	t0 := time.Now()
	m, err := wasm.Decode(bin)
	ph.decode = time.Since(t0)
	if err != nil {
		return nil, ph, err
	}
	t0 = time.Now()
	err = wasm.Validate(m)
	ph.validate = time.Since(t0)
	if err != nil {
		return nil, ph, err
	}
	t0 = time.Now()
	mc, err := exec.Precompile(m)
	ph.lower = time.Since(t0)
	if err != nil {
		return nil, ph, err
	}
	return &Entry{Digest: digest, BinSize: int64(len(bin)), Module: m, Code: mc}, ph, nil
}

// evictLocked forgets least-recently-used entries while over the byte bound
// — but never the most recently used one, so an oversized module still
// caches.
func (c *Cache) evictLocked() {
	for c.maxBytes > 0 && c.bytes > c.maxBytes && len(c.entries) > 1 {
		e := c.lru.prev
		c.unlinkLocked(e)
		delete(c.entries, e.Digest)
		c.bytes -= e.Cost() + e.t1
		c.t1bytes -= e.t1
		c.evictions++
	}
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		Tier1Bytes: c.t1bytes,
		MaxBytes:   c.maxBytes,
	}
}
