package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic counter. All methods are safe on a nil receiver
// (no-ops returning zero), so components can resolve handles once from a
// possibly-nil Telemetry and call them unconditionally on hot paths with
// zero allocations and a single predictable branch when disabled.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-linear, HDR-style. Values below 2^histSubBits
// get exact unit-width buckets; above that, each power-of-two octave is split
// into 2^histSubBits linear sub-buckets, bounding the relative quantile error
// to one part in 2^histSubBits (12.5% with 3 sub-bits) — one bucket width.
const (
	histSubBits = 3
	histBase    = 1 << histSubBits
	// histBuckets covers every non-negative int64: the maximum index is
	// histBase + (62-histSubBits)*histBase + (histBase-1) = 487.
	histBuckets = 488
)

// bucketIdx maps a non-negative value to its bucket index.
func bucketIdx(v uint64) int {
	if v < histBase {
		return int(v)
	}
	shift := uint(bits.Len64(v) - 1 - histSubBits)
	return histBase + int(shift)<<histSubBits + int((v>>shift)&(histBase-1))
}

// bucketBounds returns the inclusive [lo, hi] value range of a bucket index.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histBase {
		return int64(idx), int64(idx)
	}
	rel := idx - histBase
	shift := uint(rel >> histSubBits)
	pos := int64(rel & (histBase - 1))
	lo = (histBase + pos) << shift
	return lo, lo + int64(1)<<shift - 1
}

// Histogram records int64 samples (typically nanoseconds, bytes, or pages)
// into fixed log-linear buckets. Record is lock-free and allocation-free:
// one atomic add per bucket plus count/sum/min/max maintenance, ~ns cost.
// Negative samples clamp to zero. Histograms with identical layout (all of
// them — the layout is fixed) merge by bucket-wise addition of their
// ReadBuckets copies, which is what the tsdb's windows do.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // MaxInt64 until the first Record
	max    atomic.Int64 // MinInt64 until the first Record
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the midpoint of the
// bucket holding the sample of that rank, clamped to the recorded min/max.
// The estimate is within one bucket width of the exact order statistic.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			lo, hi := bucketBounds(i)
			mid := lo + (hi-lo)/2
			if mn := h.min.Load(); mid < mn {
				mid = mn
			}
			if mx := h.max.Load(); mid > mx {
				mid = mx
			}
			return mid
		}
	}
	return h.max.Load()
}

// NumBuckets is the fixed bucket count shared by every Histogram. Windowed
// consumers (the tsdb sampler) size their per-window copies with it.
func NumBuckets() int { return histBuckets }

// BucketRange returns the inclusive [lo, hi] value range of bucket idx in the
// shared layout.
func BucketRange(idx int) (lo, hi int64) { return bucketBounds(idx) }

// ReadBuckets copies the raw (non-cumulative) bucket counts into dst, which
// must have at least NumBuckets elements, and returns the total count and
// sum. All reads are atomic loads — no lock, no allocation — so the tsdb
// sample path can snapshot a live histogram while writers keep recording.
// Nil-safe: a nil histogram zeroes dst and returns (0, 0).
func (h *Histogram) ReadBuckets(dst []int64) (count, sum int64) {
	if h == nil {
		for i := range dst[:histBuckets] {
			dst[i] = 0
		}
		return 0, 0
	}
	for i := 0; i < histBuckets; i++ {
		dst[i] = h.counts[i].Load()
	}
	return h.count.Load(), h.sum.Load()
}

// QuantileOf estimates the q-quantile of a sample set described by raw
// bucket counts in the shared layout (typically a window delta of two
// ReadBuckets snapshots). The estimate is the midpoint of the bucket holding
// the sample of that rank — within one bucket width of the exact order
// statistic, without the live histogram's min/max clamp (window deltas have
// no subtractable min/max).
func QuantileOf(buckets []int64, q float64) int64 {
	var total int64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)/2
		}
	}
	return 0
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one non-empty histogram bucket in a snapshot (non-cumulative).
type Bucket struct {
	// UpperBound is the inclusive upper value bound of the bucket.
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time dump of a registry, sorted by metric name.
// It marshals to JSON as the `telemetry` block of bench result files.
type Snapshot struct {
	Counters   []NamedValue        `json:"counters"`
	Gauges     []NamedValue        `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Registry holds named metrics of two kinds. Stored metrics are handles a
// component resolves once (get-or-create under a mutex) and then writes with
// atomics: histograms, and the counters and gauges of components that keep no
// books of their own. A component whose Stats() already counts registers a
// source instead: one function reporting those numbers when someone looks. A
// nil registry returns nil handles, which in turn no-op — the disabled path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sources  map[any]source
	// sourceList is sources' values for readers to range over after they
	// unlock: dropped by SetSource, rebuilt (never edited) by the next reader,
	// so registering stays O(1) however many sources there are.
	sourceList []source
}

// source reports one component's counters and gauges through two callbacks.
type source = func(counter, gauge func(name string, v int64))

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sources:  make(map[any]source),
	}
}

// SetSource registers collect as owner's metric source, replacing whatever
// owner registered before; a nil collect removes it. Every Snapshot and Read
// calls each source once, outside the registry's mutex (so collect may take
// its component's locks, including one held around this call), and adds up
// emissions that share a name: an unlabeled series is the sum over every
// live instance that emits it, and a source may emit labeled names
// (Labeled). collect runs on the reading goroutine and must only read what
// is safe to read from there. No-op on a nil registry.
func (r *Registry) SetSource(owner any, collect func(counter, gauge func(name string, v int64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sources, owner)
	if collect != nil {
		r.sources[owner] = collect
	}
	r.sourceList = nil
}

// sourcesLocked returns the registered sources; callers hold r.mu.
func (r *Registry) sourcesLocked() []source {
	if r.sourceList == nil {
		r.sourceList = make([]source, 0, len(r.sources))
		for _, src := range r.sources {
			r.sourceList = append(r.sourceList, src)
		}
	}
	return r.sourceList
}

// Read sets out[i] to the value of the counter or gauge names[i] — stored
// handle plus every source's emissions under that name, 0 when there is none
// — without building a Snapshot: the tsdb's per-window read of the few series
// it tracks. A nil registry reads all zeros.
func (r *Registry) Read(names []string, out []int64) {
	if r == nil {
		clear(out)
		return
	}
	r.mu.Lock()
	for i, name := range names {
		out[i] = r.counters[name].Value() + r.gauges[name].Value()
	}
	sources := r.sourcesLocked()
	r.mu.Unlock()
	add := func(name string, v int64) {
		for i, n := range names {
			if n == name {
				out[i] += v
			}
		}
	}
	for _, src := range sources {
		src(add, add)
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot dumps every metric, sorted by name: the stored handles plus one
// evaluation of every source, same-name values added. Stored values are read
// with the registration mutex held, sources after it is released; metrics
// keep being written concurrently, so the snapshot is per-metric consistent
// (the usual scrape semantics).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: []NamedValue{}, Gauges: []NamedValue{}, Histograms: []HistogramSnapshot{}}
	}
	r.mu.Lock()
	s := Snapshot{
		Counters:   make([]NamedValue, 0, len(r.counters)),
		Gauges:     make([]NamedValue, 0, len(r.gauges)),
		Histograms: make([]HistogramSnapshot, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Name:  name,
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		for i := range h.counts {
			if n := h.counts[i].Load(); n > 0 {
				_, hi := bucketBounds(i)
				hs.Buckets = append(hs.Buckets, Bucket{UpperBound: hi, Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sources := r.sourcesLocked()
	r.mu.Unlock()

	counter := func(name string, v int64) { s.Counters = append(s.Counters, NamedValue{Name: name, Value: v}) }
	gauge := func(name string, v int64) { s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: v}) }
	for _, src := range sources {
		src(counter, gauge)
	}
	s.Counters = sumByName(s.Counters)
	s.Gauges = sumByName(s.Gauges)
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// sumByName sorts vs by name and folds entries that share one into their sum.
func sumByName(vs []NamedValue) []NamedValue {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Name < vs[j].Name })
	out := vs[:0]
	for _, v := range vs {
		if n := len(out); n > 0 && out[n-1].Name == v.Name {
			out[n-1].Value += v.Value
			continue
		}
		out = append(out, v)
	}
	return out
}
