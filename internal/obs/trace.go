package obs

import (
	"sync"
	"time"
)

// Attr is one span attribute. Val carries numeric attributes; a non-empty
// Str takes precedence and carries string attributes.
type Attr struct {
	Key string
	Val int64
	Str string
}

// I64 builds a numeric attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v} }

// Span is one completed interval on the request lifecycle: queue wait, pool
// acquire, engine instantiate, guest invoke, CoW reset, cache compile.
// Start/Dur are in the tracer clock's nanoseconds (simulated time when the
// tracer is wired to the DES engine, wall time otherwise).
type Span struct {
	Name  string
	Cat   string
	PID   int64
	TID   int64
	Start int64
	Dur   int64
	Attrs []Attr
}

// TailConfig shapes tail-based sampling: spans on a request track (TID != 0)
// are buffered until the request's outcome is known, and only interesting
// tracks — errors and latency outliers — are committed to the
// ring. Healthy traffic stops wrapping the ring, so under sustained load
// /v1/trace keeps showing the requests worth looking at.
type TailConfig struct {
	// LatencyThreshold keeps tracks whose reported latency exceeds it; 0
	// keeps only errored tracks.
	LatencyThreshold time.Duration
	// MaxBufferedSpans is the hard memory bound on undecided spans across
	// all pending tracks; 0 means DefaultTailBufferedSpans. When a new span
	// would exceed it, the oldest pending track is evicted (its spans are
	// lost and counted in TailStats.EvictedTracks).
	MaxBufferedSpans int
	// MaxTrackSpans bounds one track's buffered spans; 0 means
	// DefaultTailTrackSpans. Extra spans are dropped and counted in
	// TailStats.TruncatedSpans.
	MaxTrackSpans int
}

// Tail sampler defaults: generous for a per-request span count of ~4-6 while
// keeping the undecided buffer a fixed, small multiple of the in-flight set.
const (
	DefaultTailBufferedSpans = 4096
	DefaultTailTrackSpans    = 64
)

// TrackOutcome carries the request facts the tail sampler decides on.
type TrackOutcome struct {
	// Err marks a request whose final outcome was an error.
	Err bool
	// LatencyNs is the request's end-to-end simulated latency.
	LatencyNs int64
}

// TailStats counts tail-sampler activity.
type TailStats struct {
	// KeptTracks is the number of finished tracks committed to the ring.
	KeptTracks int64
	// SampledOutTracks is the number of healthy tracks dropped at finish.
	SampledOutTracks int64
	// EvictedTracks is the number of pending tracks evicted to keep the
	// undecided buffer under MaxBufferedSpans.
	EvictedTracks int64
	// TruncatedSpans is the number of spans dropped by MaxTrackSpans.
	TruncatedSpans int64
	// PendingSpans is the current undecided span count (≤ MaxBufferedSpans).
	PendingSpans int
	// PendingPeak is the high-water mark of PendingSpans.
	PendingPeak int
}

// pendingTrack is one undecided request's buffered spans.
type pendingTrack struct {
	tid   int64
	spans []record
}

// inlineAttrs is how many attributes a record packs in place; every
// request-path span fits.
const inlineAttrs = 3

// internCap bounds the tracer's string table. Span names, categories,
// attribute keys and string values come from a small fixed vocabulary; a
// string that arrives once the table is full spills with its span.
const internCap = 4096

// minRingGrowth is the first backing array a tracer allocates, and the
// least it grows by, in records. Past 4×minRingGrowth the ring grows by a
// quarter, so a filling ring overshoots what it holds by at most 25 %.
const minRingGrowth = 32

// packedAttr is an Attr with its strings replaced by intern ids (0 is "").
type packedAttr struct {
	key, str uint32
	val      int64
}

// record is one retained span as the ring and the tail sampler store it:
// fixed-size, with the name, category and up to inlineAttrs attributes
// interned. A span with more attributes, or with a string the full intern
// table cannot take, keeps its name, category and attributes verbatim in
// spill instead.
type record struct {
	pid, tid, start, dur int64
	name, cat            uint32
	nattr                int32
	attrs                [inlineAttrs]packedAttr
	spill                *spill
}

// spill is the verbatim part of a span that did not pack.
type spill struct {
	name, cat string
	attrs     []Attr
}

// Tracer records spans into a bounded ring buffer: tracing a long load run
// costs at most `capacity` records, and the newest spans win. The ring's
// backing array grows on commit, so a tracer pays for the spans it holds,
// not for its bound. The zero-cost disabled path is a nil *Tracer — callers
// emitting spans must guard with `if tr != nil` at the call site (the
// variadic attribute list would otherwise be built even for a no-op call).
type Tracer struct {
	mu       sync.Mutex
	clock    func() int64
	pid      int64
	capacity int
	ring     []record // grows to capacity, then overwrites at next
	next     int
	total    int64

	// strs is the append-only intern table (strs[0] == ""), ids its index.
	strs []string
	ids  map[string]uint32

	// Tail sampling state (nil tail = every span commits immediately).
	tail      *TailConfig
	pending   map[int64]*pendingTrack
	order     []int64 // track ids in first-span order, for bounded eviction
	pendingN  int
	tailStats TailStats
}

// DefaultTraceCapacity bounds the span ring when no capacity is given:
// enough for every request phase of a multi-second load run.
const DefaultTraceCapacity = 1 << 16

// NewTracer creates a tracer holding the last `capacity` spans; it
// allocates no ring until the first span commits. clock returns the current
// time in nanoseconds; nil uses the wall clock.
func NewTracer(capacity int, clock func() int64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if clock == nil {
		start := time.Now()
		clock = func() int64 { return int64(time.Since(start)) }
	}
	return &Tracer{clock: clock, capacity: capacity}
}

// Now reads the tracer clock (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock()
}

// SetClock swaps the time source. The serving harness points it at the DES
// engine so span timestamps land on the simulated timeline the latency
// figures use.
func (t *Tracer) SetClock(clock func() int64) {
	if t == nil || clock == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
}

// SetPID stamps subsequent spans with a logical process id (the Chrome trace
// viewer groups tracks by pid; the bench harness uses one pid per run).
func (t *Tracer) SetPID(pid int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pid = pid
}

// Span records one completed interval [start, end] with optional attributes.
// end < start is clamped to a zero-duration span. With tail sampling enabled,
// spans on a request track (tid != 0) are buffered until FinishTrack decides
// the track's fate; tid-0 spans (engine and pool lifecycle) always commit
// immediately. attrs is copied, never retained.
func (t *Tracer) Span(name, cat string, tid, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	r := t.packLocked(name, cat, attrs)
	r.pid, r.tid, r.start, r.dur = t.pid, tid, start, dur
	if t.tail != nil && tid != 0 {
		t.bufferLocked(r)
	} else {
		t.commitLocked(r)
	}
	t.mu.Unlock()
}

// packLocked builds the record for one span's strings and attributes,
// interning what the table can take and spilling the rest.
func (t *Tracer) packLocked(name, cat string, attrs []Attr) record {
	var r record
	ok := len(attrs) <= inlineAttrs
	if ok {
		r.name, ok = t.internLocked(name)
	}
	if ok {
		r.cat, ok = t.internLocked(cat)
	}
	for i := 0; ok && i < len(attrs); i++ {
		a := &r.attrs[i]
		a.val = attrs[i].Val
		if a.key, ok = t.internLocked(attrs[i].Key); ok {
			a.str, ok = t.internLocked(attrs[i].Str)
		}
	}
	if !ok {
		return record{spill: &spill{name: name, cat: cat, attrs: append([]Attr(nil), attrs...)}}
	}
	r.nattr = int32(len(attrs))
	return r
}

// internLocked returns s's id in the intern table, adding it while the
// table is under internCap. Reports false when s is new and the table full.
func (t *Tracer) internLocked(s string) (uint32, bool) {
	if s == "" {
		return 0, true
	}
	if id, ok := t.ids[s]; ok {
		return id, true
	}
	if len(t.strs) >= internCap {
		return 0, false
	}
	if t.ids == nil {
		t.ids = map[string]uint32{}
		t.strs = []string{""}
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id, true
}

// commitLocked writes one decided span into the ring, growing the backing
// array (never past capacity) until the ring is full.
func (t *Tracer) commitLocked(r record) {
	if n := len(t.ring); n < t.capacity {
		if n == cap(t.ring) {
			grown := make([]record, n, min(n+max(n/4, minRingGrowth), t.capacity))
			copy(grown, t.ring)
			t.ring = grown
		}
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.next] = r
	}
	t.next = (t.next + 1) % t.capacity
	t.total++
}

// bufferLocked parks one request span in its pending track, enforcing the
// per-track and whole-buffer bounds.
func (t *Tracer) bufferLocked(r record) {
	tr, ok := t.pending[r.tid]
	if !ok {
		tr = &pendingTrack{tid: r.tid}
		t.pending[r.tid] = tr
		t.order = append(t.order, r.tid)
	}
	if len(tr.spans) >= t.tail.MaxTrackSpans {
		t.tailStats.TruncatedSpans++
		return
	}
	tr.spans = append(tr.spans, r)
	t.pendingN++
	if t.pendingN > t.tailStats.PendingPeak {
		t.tailStats.PendingPeak = t.pendingN
	}
	// Hard memory bound: evict whole oldest tracks (never the one we just
	// appended to — its outcome may still prove interesting) until the
	// undecided buffer fits again.
	for t.pendingN > t.tail.MaxBufferedSpans {
		if !t.evictOldestLocked(r.tid) {
			// Only the current track remains; drop its newest span instead.
			tr.spans = tr.spans[:len(tr.spans)-1]
			t.pendingN--
			t.tailStats.TruncatedSpans++
			return
		}
	}
}

// evictOldestLocked drops the oldest pending track other than keepTID.
// Reports false when no such track exists.
func (t *Tracer) evictOldestLocked(keepTID int64) bool {
	for i, tid := range t.order {
		tr, ok := t.pending[tid]
		if !ok || tid == keepTID { // finished already, or protected
			continue
		}
		t.order = append(t.order[:i], t.order[i+1:]...)
		delete(t.pending, tid)
		t.pendingN -= len(tr.spans)
		t.tailStats.EvictedTracks++
		return true
	}
	return false
}

// SetTailSampling turns tail-based sampling on (non-nil cfg) or off (nil).
// Turning it off flushes every pending track to the ring — nothing buffered
// is lost. Safe to call at any time; typically set once at startup.
func (t *Tracer) SetTailSampling(cfg *TailConfig) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cfg == nil {
		for _, tid := range t.order {
			if tr, ok := t.pending[tid]; ok {
				for _, r := range tr.spans {
					t.commitLocked(r)
				}
			}
		}
		t.tail, t.pending, t.order, t.pendingN = nil, nil, nil, 0
		return
	}
	c := *cfg
	if c.MaxBufferedSpans <= 0 {
		c.MaxBufferedSpans = DefaultTailBufferedSpans
	}
	if c.MaxTrackSpans <= 0 {
		c.MaxTrackSpans = DefaultTailTrackSpans
	}
	t.tail = &c
	if t.pending == nil {
		t.pending = map[int64]*pendingTrack{}
	}
}

// FinishTrack settles one request track: interesting outcomes (error,
// latency past the threshold) commit the buffered spans to the ring, healthy
// ones drop them. Reports whether the track was kept. With tail sampling
// disabled it reports true — every span already committed. Unknown tracks
// (no spans buffered, e.g. a request refused at admission) settle without
// effect.
func (t *Tracer) FinishTrack(tid int64, o TrackOutcome) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tail == nil {
		return true
	}
	keep := o.Err ||
		(t.tail.LatencyThreshold > 0 && o.LatencyNs > int64(t.tail.LatencyThreshold))
	tr, ok := t.pending[tid]
	if !ok {
		return keep
	}
	delete(t.pending, tid)
	t.pendingN -= len(tr.spans)
	for i, id := range t.order {
		if id == tid {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	if keep {
		t.tailStats.KeptTracks++
		for _, r := range tr.spans {
			t.commitLocked(r)
		}
	} else {
		t.tailStats.SampledOutTracks++
	}
	return keep
}

// TailStats snapshots the tail sampler's counters. Zero when tail sampling
// was never enabled.
func (t *Tracer) TailStats() TailStats {
	if t == nil {
		return TailStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.tailStats
	st.PendingSpans = t.pendingN
	return st
}

// Spans returns the retained spans oldest-first. Only the record copy
// happens under the tracer's lock; the spans are rebuilt after it, so a
// scrape does not stall span emission.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	// Oldest first: the ring starts at 0 until it wraps, then at next.
	recs := make([]record, 0, len(t.ring))
	if t.total > int64(len(t.ring)) {
		recs = append(recs, t.ring[t.next:]...)
		recs = append(recs, t.ring[:t.next]...)
	} else {
		recs = append(recs, t.ring...)
	}
	// The table is append-only: ids below len(strs) never change.
	strs := t.strs
	t.mu.Unlock()

	nattr := 0
	for i := range recs {
		nattr += recs[i].attrCount()
	}
	attrs := make([]Attr, nattr)
	out := make([]Span, len(recs))
	for i := range recs {
		r := &recs[i]
		s := &out[i]
		s.PID, s.TID, s.Start, s.Dur = r.pid, r.tid, r.start, r.dur
		n := r.attrCount()
		if n > 0 {
			s.Attrs, attrs = attrs[:n:n], attrs[n:]
		}
		if r.spill != nil {
			s.Name, s.Cat = r.spill.name, r.spill.cat
			copy(s.Attrs, r.spill.attrs)
			continue
		}
		s.Name, s.Cat = strs[r.name], strs[r.cat]
		for j, a := range r.attrs[:n] {
			s.Attrs[j] = Attr{Key: strs[a.key], Val: a.val, Str: strs[a.str]}
		}
	}
	return out
}

// attrCount is how many attributes the record's span carries.
func (r *record) attrCount() int {
	if r.spill != nil {
		return len(r.spill.attrs)
	}
	return int(r.nattr)
}

// Dropped returns how many spans the ring overwrote.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= int64(t.capacity) {
		return 0
	}
	return t.total - int64(t.capacity)
}
