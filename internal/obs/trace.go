package obs

import (
	"encoding/binary"
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
// log. Healthy traffic stops wrapping the log, so under sustained load
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
	// KeptTracks is the number of finished tracks committed to the log.
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

// pendingTrack buffers one undecided request's spans; their bodies share body.
type pendingTrack struct {
	spans []pendingSpan
	body  []byte
}

type pendingSpan struct {
	pid, start int64
	body       []byte
}

// internCap bounds the intern table: span strings come from a small fixed
// vocabulary, and a span with a string the full table lacks goes verbatim.
const internCap = 4096

// chunkSize is the size of a log chunk; a larger span gets its own chunk.
const chunkSize = 4 << 10

// chunk is one block of the span log: n spans, encoded back to back.
type chunk struct {
	buf []byte
	n   int
}

// Tracer keeps the last `capacity` spans in a log of 4 KiB chunks, paying
// for the spans it holds (about 17 bytes a request span), not for its
// bound; the collector never scans span data. A span is encoded as
//
//	varint(pid−pid′) varint(tid−tid′) varint(start−start′)
//	uvarint(nattr<<1 | verbatim) name cat uvarint(dur) nattr × (key str varint(val))
//
// where ′ is the previous span in the chunk (0 at a chunk's start, so each
// chunk decodes on its own), and a string is its intern id or, in a
// verbatim span, uvarint(len) and its bytes. A nil *Tracer is the free
// disabled path; callers guard spans with `if tr != nil`, or the variadic
// attribute list is built even for a no-op call.
type Tracer struct {
	mu       sync.Mutex
	clock    func() int64
	pid      int64
	capacity int
	total    int64 // spans ever committed

	// chunks holds the log oldest-first; the last one takes new spans. The
	// first skip spans of chunks[0] are evicted; a chunk with every span
	// evicted leaves, its buffer kept in spare for the next chunk.
	chunks []chunk
	skip   int
	spare  []byte
	last   [3]int64 // pid, tid and start of the last chunk's last span
	body   []byte   // the span being encoded

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

// DefaultTraceCapacity bounds the span log: enough for a multi-second run.
const DefaultTraceCapacity = 1 << 16

// NewTracer creates a tracer holding the last `capacity` spans; it
// allocates no chunk until the first span commits. clock returns the
// current time in nanoseconds; nil uses the wall clock.
func NewTracer(capacity int, clock func() int64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if clock == nil {
		start := time.Now()
		clock = func() int64 { return int64(time.Since(start)) }
	}
	return &Tracer{clock: clock, capacity: capacity, strs: []string{""}, ids: map[string]uint32{}}
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
// immediately. attrs is encoded, never retained.
func (t *Tracer) Span(name, cat string, tid, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.body = t.appendBody(t.body[:0], false, name, cat, max(end-start, 0), attrs)
	if t.tail != nil && tid != 0 {
		t.bufferLocked(t.pid, tid, start, t.body)
	} else {
		t.commitLocked(t.pid, tid, start, t.body)
	}
	t.mu.Unlock()
}

// appendBody encodes a span but for its pid, tid and start into b[:0]:
// with interned strings, or verbatim when the intern table is full.
func (t *Tracer) appendBody(b []byte, verbatim bool, name, cat string, dur int64, attrs []Attr) []byte {
	h, ok := uint64(len(attrs))<<1, true
	if verbatim {
		h |= 1
	}
	b = t.appendStr(binary.AppendUvarint(b, h), verbatim, name, &ok)
	b = binary.AppendUvarint(t.appendStr(b, verbatim, cat, &ok), uint64(dur))
	for _, a := range attrs {
		b = t.appendStr(t.appendStr(b, verbatim, a.Key, &ok), verbatim, a.Str, &ok)
		b = binary.AppendVarint(b, a.Val)
	}
	if !ok {
		return t.appendBody(b[:0], true, name, cat, dur, attrs)
	}
	return b
}

// appendStr encodes s as its intern id, clearing ok when the table cannot
// take it, or verbatim as its length and bytes.
func (t *Tracer) appendStr(b []byte, verbatim bool, s string, ok *bool) []byte {
	if verbatim {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	id, interned := t.internLocked(s)
	*ok = *ok && interned
	return binary.AppendUvarint(b, uint64(id))
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
	t.ids[s] = uint32(len(t.strs))
	t.strs = append(t.strs, s)
	return uint32(len(t.strs) - 1), true
}

// commitLocked appends a decided span to the log, in the last chunk if it
// fits there with its deltas at their longest, evicting the oldest span once
// the log holds capacity spans.
func (t *Tracer) commitLocked(pid, tid, start int64, body []byte) {
	if t.total++; t.total > int64(t.capacity) {
		if t.skip++; t.skip == t.chunks[0].n {
			if buf := t.chunks[0].buf; cap(buf) == chunkSize {
				t.spare = buf[:0]
			}
			t.chunks, t.skip = t.chunks[:copy(t.chunks, t.chunks[1:])], 0
		}
	}
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1].buf)+3*binary.MaxVarintLen64+len(body) > chunkSize {
		if t.spare == nil {
			t.spare = make([]byte, 0, chunkSize)
		}
		t.chunks, t.spare, t.last = append(t.chunks, chunk{buf: t.spare}), nil, [3]int64{}
	}
	c, cur := &t.chunks[len(t.chunks)-1], [3]int64{pid, tid, start}
	for i := range cur {
		c.buf = binary.AppendVarint(c.buf, cur[i]-t.last[i])
	}
	c.buf, c.n, t.last = append(c.buf, body...), c.n+1, cur
}

// bufferLocked parks one request span in its pending track, enforcing the
// per-track and whole-buffer bounds.
func (t *Tracer) bufferLocked(pid, tid, start int64, body []byte) {
	tr, ok := t.pending[tid]
	if !ok {
		tr = &pendingTrack{}
		t.pending[tid] = tr
		t.order = append(t.order, tid)
	}
	if len(tr.spans) >= t.tail.MaxTrackSpans {
		t.tailStats.TruncatedSpans++
		return
	}
	tr.body = append(tr.body, body...)
	tr.spans = append(tr.spans, pendingSpan{pid, start, tr.body[len(tr.body)-len(body):]})
	t.pendingN++
	if t.pendingN > t.tailStats.PendingPeak {
		t.tailStats.PendingPeak = t.pendingN
	}
	// Hard memory bound: evict whole oldest tracks (never the one we just
	// appended to — its outcome may still prove interesting) until the
	// undecided buffer fits again.
	for t.pendingN > t.tail.MaxBufferedSpans {
		if !t.evictOldestLocked(tid) {
			// Only the current track remains; drop its newest span instead.
			tr.spans, tr.body = tr.spans[:len(tr.spans)-1], tr.body[:len(tr.body)-len(body)]
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
// Turning it off flushes every pending track to the log — nothing buffered
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
				for _, ps := range tr.spans {
					t.commitLocked(ps.pid, tid, ps.start, ps.body)
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
// latency past the threshold) commit the buffered spans to the log, healthy
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
		for _, ps := range tr.spans {
			t.commitLocked(ps.pid, tid, ps.start, ps.body)
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

// Spans returns the retained spans oldest-first. It copies the log's bytes
// under the lock and decodes them after it, so a scrape does not stall spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	bufs := make([][]byte, len(t.chunks))
	for i, c := range t.chunks {
		bufs[i] = append([]byte(nil), c.buf...)
	}
	// The evicted head of chunks[0] decodes too, to find where the rest
	// starts. The table is append-only: ids below len(strs) never change.
	out, skip, strs := make([]Span, min(t.total, int64(t.capacity))+int64(t.skip)), t.skip, t.strs
	t.mu.Unlock()

	var attrs []Attr
	i := 0
	for _, buf := range bufs {
		for d := (decoder{buf: buf, strs: strs}); len(d.buf) > 0; i++ {
			d.next(&out[i], &attrs)
		}
	}
	return out[skip:]
}

// decoder reads one chunk's spans in order.
type decoder struct {
	buf  []byte
	strs []string
	last [3]int64
}

// next decodes one span into s, appending its attributes to attrs.
func (d *decoder) next(s *Span, attrs *[]Attr) {
	for i := range d.last {
		d.last[i] += d.varint()
	}
	s.PID, s.TID, s.Start = d.last[0], d.last[1], d.last[2]
	h := d.uvarint()
	verbatim := h&1 == 1
	s.Name, s.Cat, s.Dur = d.str(verbatim), d.str(verbatim), int64(d.uvarint())
	if n := int(h >> 1); n > 0 {
		lo := len(*attrs)
		for ; n > 0; n-- {
			*attrs = append(*attrs, Attr{Key: d.str(verbatim), Str: d.str(verbatim), Val: d.varint()})
		}
		s.Attrs = (*attrs)[lo:len(*attrs):len(*attrs)]
	}
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	d.buf = d.buf[n:]
	return v
}

// varint undoes binary.AppendVarint's zigzag encoding.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// str decodes one string: an intern id or a verbatim length and bytes.
func (d *decoder) str(verbatim bool) string {
	n := d.uvarint()
	if !verbatim {
		return d.strs[n]
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Dropped returns how many spans the log evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return max(t.total-int64(t.capacity), 0)
}
