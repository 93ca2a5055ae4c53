// Package tsdb turns the obs registry's monotonic totals into windowed time
// series: a fixed-capacity ring of periodic snapshots storing counter deltas,
// gauge values, and mergeable histogram windows.
//
// # Sampling discipline
//
// The DB never samples itself. One goroutine — the gateway bridge's loop
// goroutine — calls Advance(now) with the current simulated time; every window
// whose end has passed closes then, capturing the registry exactly once per
// boundary. Because window edges are aligned to multiples of the interval on
// the simulated clock and the caller advances before executing events at or
// past the boundary, two `-dilation 0` runs of the same workload close
// identical windows with identical contents: the series is byte-for-byte
// reproducible.
//
// # Concurrency contract
//
// Advance is single-writer. Inside a window it is one atomic load; a window
// close reads the tracked histogram handles (plain atomics) and every tracked
// counter and gauge in one obs.Registry.Read — which runs the registered
// metric sources, so the sampling goroutine must not hold a component lock a
// source takes — then publishes the completed, immutable Window through an
// atomic pointer ring. Readers (HTTP handlers) never block the sampler and
// never see a torn window. A nil *DB is the disabled state: every method
// no-ops at zero cost, enforced by the obs-overhead benchmark gate.
package tsdb

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/obs"
)

// DefaultCapacity bounds the window ring when Config.Capacity is zero. At the
// gateway's default 250ms interval this retains 64 seconds of history.
const DefaultCapacity = 256

// Config shapes a DB. The first window starts at 0, the simulation start.
type Config struct {
	// Interval is the window length on the sampling clock (simulated
	// nanoseconds in DES runs). Required > 0.
	Interval time.Duration
	// Capacity is the number of retained windows; 0 means DefaultCapacity.
	Capacity int
}

// CounterWindow is one counter's contribution to a window.
type CounterWindow struct {
	Name  string `json:"name"`
	Delta int64  `json:"delta"`
	Total int64  `json:"total"`
}

// GaugeWindow is one gauge's value at window close.
type GaugeWindow struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketDelta is one non-empty histogram bucket's count within a window,
// keyed by bucket index in the shared obs layout (obs.BucketRange maps an
// index back to its value bounds).
type BucketDelta struct {
	Idx   int   `json:"idx"`
	Count int64 `json:"count"`
}

// HistogramWindow is one histogram's within-window sample set. Buckets holds
// only non-zero deltas; windows merge by summing bucket deltas, and
// obs.QuantileOf recovers quantiles from any merge.
type HistogramWindow struct {
	Name       string        `json:"name"`
	CountDelta int64         `json:"count_delta"`
	SumDelta   int64         `json:"sum_delta"`
	CountTotal int64         `json:"count_total"`
	SumTotal   int64         `json:"sum_total"`
	Buckets    []BucketDelta `json:"buckets,omitempty"`
}

// Window is one closed sampling interval [Start, End). Windows are immutable
// after publication.
type Window struct {
	// Seq numbers windows from 0 in close order, including windows
	// fast-forwarded past during idle gaps (those never materialize).
	Seq        int64             `json:"seq"`
	Start      int64             `json:"start_ns"`
	End        int64             `json:"end_ns"`
	Counters   []CounterWindow   `json:"counters,omitempty"`
	Gauges     []GaugeWindow     `json:"gauges,omitempty"`
	Histograms []HistogramWindow `json:"histograms,omitempty"`
}

// counterSeries and histSeries hold per-series sampler state. The prev*
// fields belong exclusively to the sampling goroutine.
type counterSeries struct {
	name string
	prev int64
}

type histSeries struct {
	name               string
	h                  *obs.Histogram
	prev               []int64 // bucket counts at the previous boundary
	scratch            []int64 // bucket counts at the current boundary
	prevCount, prevSum int64
}

// seriesSet is the copy-on-write registration snapshot the sample path loads
// with one atomic pointer read.
type seriesSet struct {
	counters []*counterSeries
	gauges   []string
	hists    []*histSeries
	// names lists the counter names, then the gauge names: what a window close
	// asks the registry for in one Read into vals (the sampling goroutine's).
	names []string
	vals  []int64
}

// named rebuilds names and vals after a counter or gauge registration.
func (ss *seriesSet) named() *seriesSet {
	ss.names = make([]string, 0, len(ss.counters)+len(ss.gauges))
	for _, s := range ss.counters {
		ss.names = append(ss.names, s.name)
	}
	ss.names = append(ss.names, ss.gauges...)
	ss.vals = make([]int64, len(ss.names))
	return ss
}

// DB is the windowed time-series store. The zero value is not usable; New
// constructs one. A nil *DB is the disabled state.
type DB struct {
	reg      *obs.Registry
	interval int64
	capacity int

	regMu  sync.Mutex                // serializes registration only
	series atomic.Pointer[seriesSet] // current registration snapshot

	nextEnd atomic.Int64 // end of the currently-open window
	seq     int64        // owned by the sampling goroutine
	skipped atomic.Int64

	ring []atomic.Pointer[Window]
	head atomic.Int64 // windows ever published
}

// New creates a DB over t's metrics: counter and gauge series are read from
// it by name, so t may be nil only if every such series may read zero. A
// non-positive interval returns nil (disabled).
func New(t *obs.Telemetry, cfg Config) *DB {
	if cfg.Interval <= 0 {
		return nil
	}
	cap := cfg.Capacity
	if cap <= 0 {
		cap = DefaultCapacity
	}
	db := &DB{
		reg:      t.Metrics(),
		interval: int64(cfg.Interval),
		capacity: cap,
		ring:     make([]atomic.Pointer[Window], cap),
	}
	db.series.Store(&seriesSet{})
	db.nextEnd.Store(int64(cfg.Interval))
	return db
}

// Interval returns the window length in nanoseconds (0 when disabled).
func (db *DB) Interval() int64 {
	if db == nil {
		return 0
	}
	return db.interval
}

// track swaps in a new registration snapshot under the registration mutex.
func (db *DB) track(mut func(old *seriesSet) *seriesSet) {
	db.regMu.Lock()
	defer db.regMu.Unlock()
	db.series.Store(mut(db.series.Load()))
}

// TrackCounter registers the counter series the telemetry reports under name
// (a stored handle, metric sources' emissions, or both — hence by name); an
// unknown name reads as zero. Registering while sampling runs is safe: the
// series joins at the next window, and earlier traffic is not a delta.
func (db *DB) TrackCounter(name string) {
	if db == nil {
		return
	}
	var now [1]int64
	db.reg.Read([]string{name}, now[:])
	db.track(func(old *seriesSet) *seriesSet {
		ns := &seriesSet{gauges: old.gauges, hists: old.hists}
		ns.counters = append(append([]*counterSeries{}, old.counters...),
			&counterSeries{name: name, prev: now[0]})
		return ns.named()
	})
}

// TrackGauge registers the gauge series the telemetry reports under name.
func (db *DB) TrackGauge(name string) {
	if db == nil {
		return
	}
	db.track(func(old *seriesSet) *seriesSet {
		ns := &seriesSet{counters: old.counters, hists: old.hists}
		ns.gauges = append(append([]string{}, old.gauges...), name)
		return ns.named()
	})
}

// TrackHistogram registers a histogram series.
func (db *DB) TrackHistogram(name string, h *obs.Histogram) {
	if db == nil {
		return
	}
	db.track(func(old *seriesSet) *seriesSet {
		hs := &histSeries{
			name:    name,
			h:       h,
			prev:    make([]int64, obs.NumBuckets()),
			scratch: make([]int64, obs.NumBuckets()),
		}
		hs.prevCount, hs.prevSum = h.ReadBuckets(hs.prev)
		ns := &seriesSet{counters: old.counters, gauges: old.gauges, names: old.names, vals: old.vals}
		ns.hists = append(append([]*histSeries{}, old.hists...), hs)
		return ns
	})
}

// Advance closes every window whose end is at or before now. The caller's
// clock discipline (see the package comment) makes the series deterministic.
// The no-boundary-crossed fast path is one atomic load; a nil DB no-ops.
func (db *DB) Advance(now int64) {
	if db == nil {
		return
	}
	next := db.nextEnd.Load()
	if now < next {
		return
	}
	// Long idle gap: materializing every empty window would allocate
	// proportionally to wall idle time. Fast-forward so at most `capacity`
	// windows (the retainable set) materialize; the skipped windows never had
	// observable deltas to lose — the first materialized window absorbs any.
	if gap := (now - next) / db.interval; gap >= int64(db.capacity) {
		skip := gap - int64(db.capacity) + 1
		db.skipped.Add(skip)
		db.seq += skip
		next += skip * db.interval
	}
	for now >= next {
		db.closeWindow(next)
		next += db.interval
	}
	db.nextEnd.Store(next)
}

// closeWindow captures the registry into an immutable Window ending at end
// and publishes it.
func (db *DB) closeWindow(end int64) {
	ss := db.series.Load()
	w := &Window{Seq: db.seq, Start: end - db.interval, End: end}
	db.seq++
	// One collection per window, shared by every counter and gauge series.
	if len(ss.names) > 0 {
		db.reg.Read(ss.names, ss.vals)
	}
	if n := len(ss.counters); n > 0 {
		w.Counters = make([]CounterWindow, n)
		for i, s := range ss.counters {
			v := ss.vals[i]
			w.Counters[i] = CounterWindow{Name: s.name, Delta: v - s.prev, Total: v}
			s.prev = v
		}
	}
	if n := len(ss.gauges); n > 0 {
		w.Gauges = make([]GaugeWindow, n)
		for i, name := range ss.gauges {
			w.Gauges[i] = GaugeWindow{Name: name, Value: ss.vals[len(ss.counters)+i]}
		}
	}
	if n := len(ss.hists); n > 0 {
		w.Histograms = make([]HistogramWindow, n)
		for i, s := range ss.hists {
			count, sum := s.h.ReadBuckets(s.scratch)
			hw := HistogramWindow{
				Name:       s.name,
				CountDelta: count - s.prevCount,
				SumDelta:   sum - s.prevSum,
				CountTotal: count,
				SumTotal:   sum,
			}
			for b, c := range s.scratch {
				if d := c - s.prev[b]; d != 0 {
					hw.Buckets = append(hw.Buckets, BucketDelta{Idx: b, Count: d})
				}
			}
			s.prev, s.scratch = s.scratch, s.prev
			s.prevCount, s.prevSum = count, sum
			w.Histograms[i] = hw
		}
	}
	db.ring[int(db.head.Load())%db.capacity].Store(w)
	db.head.Add(1)
}

// Windows returns up to max retained windows in chronological order (oldest
// first); max <= 0 means all retained. Safe against a concurrently advancing
// sampler: a window the ring overwrote mid-read is simply omitted.
func (db *DB) Windows(max int) []*Window {
	if db == nil {
		return nil
	}
	h := db.head.Load()
	n := h
	if n > int64(db.capacity) {
		n = int64(db.capacity)
	}
	if max > 0 && n > int64(max) {
		n = int64(max)
	}
	out := make([]*Window, 0, n)
	// Read newest-first so a concurrent overwrite (which replaces the oldest
	// slots with newer windows) shows up as a Seq inversion we can drop.
	lastSeq := int64(math.MaxInt64)
	for i := h - 1; i >= h-n && i >= 0; i-- {
		w := db.ring[int(i)%db.capacity].Load()
		if w == nil || w.Seq >= lastSeq {
			break
		}
		lastSeq = w.Seq
		out = append(out, w)
	}
	// Reverse into chronological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Stats reports sampler totals.
type Stats struct {
	// Published counts windows materialized into the ring.
	Published int64 `json:"published"`
	// Skipped counts empty windows fast-forwarded past during idle gaps.
	Skipped int64 `json:"skipped"`
	// Retained is how many windows the ring currently holds.
	Retained int `json:"retained"`
}

// Stats snapshots the sampler totals (zero when disabled).
func (db *DB) Stats() Stats {
	if db == nil {
		return Stats{}
	}
	h := db.head.Load()
	ret := h
	if ret > int64(db.capacity) {
		ret = int64(db.capacity)
	}
	return Stats{Published: h, Skipped: db.skipped.Load(), Retained: int(ret)}
}

// Collect is the sampler's metric source (obs.Source): the windows it
// published, as tsdb_windows_total (0 when disabled, so a nil DB reports
// the series too).
func (db *DB) Collect(counter, _ func(string, int64)) {
	counter("tsdb_windows_total", db.Stats().Published)
}
