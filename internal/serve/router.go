package serve

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/obs"
)

// ErrUnknownModule refuses a submission whose key matches no registered
// shard. Detect it with errors.Is.
var ErrUnknownModule = errors.New("serve: unknown module")

// RouterConfig is NewRouter's (empty) configuration: the router has one
// dispatch architecture — per-module shards, per-event batching — and
// nothing to select. The type stays so NewRouter keeps its signature.
type RouterConfig struct{}

// shard is one registered module: its dispatcher plus the pending batch
// being coalesced for the current DES event. pending and armed are touched
// only on the DES goroutine.
type shard struct {
	key    string
	module string
	d      *Dispatcher

	pending []BatchItem
	spare   []BatchItem // the other batch buffer: flush swaps the two
	// batchInline backs both buffers, one item each, until a batch of more
	// than one request grows its buffer onto the heap.
	batchInline [2]BatchItem
	armed       bool
	// names are shardSeries labeled with the module, carved from one string
	// by the first scrape (named), not per function at registration, then
	// kept, so a tsdb window close allocates nothing per shard.
	named sync.Once
	names [len(shardSeries)]string
}

// shardSeries are the per-module counters, in the order Router.Collect
// reports them.
var shardSeries = [...]string{
	"router_submitted_total", "router_completed_total", "router_rejected_total",
	"router_expired_total", "router_failed_total",
}

// Router is the sharded multi-function dispatch layer: it owns one
// dispatcher per registered module (each keeping the dispatcher's full
// queue/retry semantics, independently per shard), routes
// submissions by key through a read-locked map lookup, and coalesces
// submissions arriving within one DES event into per-shard batches so queue
// push, deadline-expiry sweep, and slot pre-claim run once per batch instead
// of once per request.
//
// Threading follows the dispatcher's contract: Submit runs on the one
// goroutine driving the DES engine. Registration and the Stats/Quiesced/
// SetDraining observers are safe from any goroutine; observers read each
// dispatcher's lock-free accessors over a shard list copied under mu.
type Router struct {
	eng *des.Engine

	// mu guards shards and tele: Register inserts in place, O(1) whatever
	// the shard count; lookups take the read lock.
	mu     sync.RWMutex
	shards map[string]*shard

	// armedQ holds the shards with a flush event pending, in arming order,
	// from armedHead on. Every flush event is scheduled at the current
	// instant and same-instant events run in schedule order, so flush events
	// run in the order they were scheduled: the next one to run belongs to
	// the shard at the head, and one event closure (flushNext, built once)
	// serves every shard. Touched only on the DES goroutine.
	armedQ    []*shard
	armedHead int
	flushNext func()

	// Batch accounting (atomic: scraped by observers mid-run).
	batches  atomic.Int64
	batched  atomic.Int64
	maxBatch atomic.Int64

	tele *obs.Telemetry
}

// NewRouter builds an empty router on eng.
func NewRouter(eng *des.Engine, _ RouterConfig) *Router {
	r := &Router{eng: eng, shards: map[string]*shard{}}
	r.flushNext = r.flushHead
	return r
}

// SetObserver wires telemetry: a metric source reporting the batch counters,
// the shard count and, for every shard in the live shard map — whenever it
// was registered — the per-module series router_*_total{module="..."}, read
// from the shard's dispatcher. A second call moves the source; nil removes
// it.
func (r *Router) SetObserver(t *obs.Telemetry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tele.Metrics().RemoveSource(r)
	r.tele = t
	t.Metrics().AddSource(r)
}

// Collect is the router's metric source (obs.Source). Shards sharing a
// module name add up, like every same-name emission. It walks the map under
// the read lock, not a copy, so a tsdb window close allocates nothing.
func (r *Router) Collect(counter, gauge func(string, int64)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counter("router_batches_total", r.batches.Load())
	counter("router_batched_requests_total", r.batched.Load())
	gauge("router_shards", int64(len(r.shards)))
	for _, sh := range r.shards {
		sh.named.Do(func() { obs.LabeledNames(sh.names[:], shardSeries[:], "module", sh.module) })
		st := sh.d.Stats()
		for i, v := range [...]int64{st.Submitted, st.Completed, st.Rejected, st.Expired, st.Failed} {
			counter(sh.names[i], v)
		}
	}
}

// Register adds one shard: key is the routing key (the gateway uses the
// compiled module's content digest), module the human-readable name used
// for labeled metrics and stats. Safe from any goroutine; existing keys are
// rejected.
func (r *Router) Register(key, module string, d *Dispatcher) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.shards[key]; dup {
		return errors.New("serve: duplicate router key " + key)
	}
	sh := &shard{key: key, module: module, d: d}
	sh.pending, sh.spare = sh.batchInline[0:0:1], sh.batchInline[1:1:2]
	r.shards[key] = sh
	return nil
}

// snapshot copies the shard list so observers iterate without the lock.
func (r *Router) snapshot() []*shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*shard, 0, len(r.shards))
	for _, sh := range r.shards {
		out = append(out, sh)
	}
	return out
}

// Lookup resolves a routing key to its dispatcher.
func (r *Router) Lookup(key string) (*Dispatcher, bool) {
	r.mu.RLock()
	sh, ok := r.shards[key]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return sh.d, true
}

// Submit routes one request to its shard at the current simulated time.
// Must run on the DES goroutine (typically from inside a DES event — the
// gateway bridge injects submissions that way). The request joins the
// shard's pending batch and a flush event armed at the current instant
// admits the whole batch once every same-instant arrival has been appended.
// done may be nil; it runs exactly once with the final outcome. The only
// error is ErrUnknownModule, reported synchronously before done could run.
func (r *Router) Submit(key string, tid int64, done func(RequestResult)) error {
	r.mu.RLock()
	sh, ok := r.shards[key]
	r.mu.RUnlock()
	if !ok {
		return ErrUnknownModule
	}
	sh.pending = append(sh.pending, BatchItem{TID: tid, Done: done})
	if !sh.armed {
		sh.armed = true
		// Same-instant events run in schedule order, so every submission
		// injected during the current event lands before this flush and
		// coalesces into one batch.
		r.armedQ = append(r.armedQ, sh)
		r.eng.At(r.eng.Now(), r.flushNext)
	}
	return nil
}

// flushHead is the flush event: it pops the shard at the head of the armed
// queue and flushes it.
func (r *Router) flushHead() {
	sh := r.armedQ[r.armedHead]
	r.armedQ[r.armedHead] = nil
	if r.armedHead++; r.armedHead == len(r.armedQ) {
		r.armedQ, r.armedHead = r.armedQ[:0], 0
	}
	r.flush(sh)
}

// flush admits a shard's pending batch. It detaches the batch before
// submitting so a done callback that re-submits (a retrying client inside
// the simulation) starts a fresh batch, in the spare buffer, instead of
// mutating the in-flight one; the admitted batch's buffer, cleared of its
// callbacks, becomes the next spare.
func (r *Router) flush(sh *shard) {
	items := sh.pending
	sh.pending, sh.spare = sh.spare, nil
	sh.armed = false
	if len(items) == 0 {
		return
	}
	r.batches.Add(1)
	r.batched.Add(int64(len(items)))
	if n := int64(len(items)); n > r.maxBatch.Load() {
		r.maxBatch.Store(n)
	}
	sh.d.SubmitBatch(items)
	clear(items)
	sh.spare = items[:0]
}

// ShardStats is one shard's introspection snapshot.
type ShardStats struct {
	Key      string
	Module   string
	Stats    DispatcherStats
	QueueLen int
	InFlight int
}

// IdentityHolds checks the admission conservation identity for this shard.
func (s ShardStats) IdentityHolds() bool { return s.Stats.IdentityHolds() }

// RouterStats is the router's introspection snapshot: per-shard outcome
// counters plus their aggregate and the batch accounting.
type RouterStats struct {
	Shards          []ShardStats
	Aggregate       DispatcherStats
	Batches         int64
	BatchedRequests int64
	MaxBatch        int64
}

// IdentityHolds checks the conservation identity per shard and in
// aggregate; authoritative once a run has drained.
func (s RouterStats) IdentityHolds() bool {
	for _, sh := range s.Shards {
		if !sh.IdentityHolds() {
			return false
		}
	}
	return s.Aggregate.IdentityHolds()
}

// Stats snapshots every shard (sorted by module, then key, for
// deterministic output) and the aggregate counters: a copy of the shard list
// taken under the read lock, then the dispatchers' atomic accessors.
func (r *Router) Stats() RouterStats {
	shards := r.snapshot()
	out := RouterStats{
		Shards:          make([]ShardStats, 0, len(shards)),
		Batches:         r.batches.Load(),
		BatchedRequests: r.batched.Load(),
		MaxBatch:        r.maxBatch.Load(),
	}
	for _, sh := range shards {
		st := sh.d.Stats()
		out.Shards = append(out.Shards, ShardStats{
			Key:      sh.key,
			Module:   sh.module,
			Stats:    st,
			QueueLen: sh.d.QueueLen(),
			InFlight: sh.d.InFlight(),
		})
		out.Aggregate.Add(st)
	}
	sort.Slice(out.Shards, func(i, j int) bool {
		if out.Shards[i].Module != out.Shards[j].Module {
			return out.Shards[i].Module < out.Shards[j].Module
		}
		return out.Shards[i].Key < out.Shards[j].Key
	})
	return out
}

// Modules lists the registered module names, sorted.
func (r *Router) Modules() []string {
	shards := r.snapshot()
	out := make([]string, 0, len(shards))
	for _, sh := range shards {
		out = append(out, sh.module)
	}
	sort.Strings(out)
	return out
}

// SetDraining flips every shard's draining state. Safe from any goroutine.
func (r *Router) SetDraining(v bool) {
	for _, sh := range r.snapshot() {
		sh.d.SetDraining(v)
	}
}

// Quiesced reports whether every shard holds no work. Batches pending a
// flush count as work only until their flush event runs, which under the
// DES contract has happened whenever the engine is idle.
func (r *Router) Quiesced() bool {
	for _, sh := range r.snapshot() {
		if !sh.d.Quiesced() {
			return false
		}
	}
	return true
}
