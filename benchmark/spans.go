package main

import (
	"time"
)

// span is one timed call into a layer's public entry point. The traced run
// feeds the same generated input to a ladder of entry points, top to bottom;
// each rung is one span whose Parent is the rung above it for the same op, so
// a rung's self time is its duration minus what the rungs below it cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a top rung
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// untraced holds what a top rung's reference took, op by op: the same ops with
// tracing off, timed as the load generator times a request.
type recorder struct {
	t0       time.Time
	spans    []span
	untraced []time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// time runs fn as one span and returns the span's id.
func (r *recorder) time(name, layer string, op, parent int, fn func()) int {
	return r.nest(name, layer, op, parent, func(int) { fn() })
}

// nest is time for a span whose callee records spans of its own: fn gets the
// new span's id to name as their parent.
func (r *recorder) nest(name, layer string, op, parent int, fn func(id int)) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op})
	start := time.Since(r.t0)
	fn(id)
	end := time.Since(r.t0)
	r.spans[id].StartNs, r.spans[id].EndNs = int64(start), int64(end)
	return id
}

// rung is one entry point of a ladder. parent indexes the rung above it in
// the ladder's list (-1 for a top rung); times is how often it runs per op
// (zero means once). prepare runs before a block of n ops (every rung's, in
// ladder order, before the block's first op) and before/after around each op;
// none of the three is timed. reference, on a top rung, is
// the same op with tracing off: it runs before each traced op, turn and turn
// about so both see the same machine, and leaves a duration and no span.
type rung struct {
	name, layer string
	parent      int
	times       int
	reference   func(k int)
	prepare     func(n int)
	before      func(k int)
	run         func(k int)
	after       func(k int)
}

// climb runs the ladder block after block for about d (at least one block).
// In a block the top rung runs its ops back to back, as the timed run's
// generator does: its server must not go idle between requests. The rungs
// below then take the same ops one at a time, each op through every rung
// before the next op, so that the rungs of one op see the same few
// milliseconds of a shared machine: taken a block per rung, 120 ms apart,
// they differed by up to 15% for no reason but the weather. Blocks are about
// blockTime of the top rung. newBlock generates the inputs of ops [base,
// base+n). A first short block runs unrecorded, as warm-up and to size the
// blocks. climb returns the spans and the recorded op count; stop, polled
// between stages, ends the climb early.
func climb(d time.Duration, rungs []rung, newBlock func(base, n int), stop func() bool) (*recorder, int) {
	const (
		blockTime          = 120 * time.Millisecond
		warmBlock          = 16
		minBlock, maxBlock = 8, 256
	)
	ids := make([][]int, len(rungs))
	for r := range ids {
		ids[r] = make([]int, maxBlock)
	}
	runOp := func(rec *recorder, r, base, k int) {
		rg := rungs[r]
		parent := -1
		if rg.parent >= 0 {
			parent = ids[rg.parent][k]
		}
		if rg.reference != nil {
			t0 := time.Now()
			rg.reference(k)
			rec.untraced = append(rec.untraced, time.Since(t0))
		}
		for t := 0; t < max(rg.times, 1); t++ {
			if rg.before != nil {
				rg.before(k)
			}
			ids[r][k] = rec.time(rg.name, rg.layer, base+k, parent, func() { rg.run(k) })
			if rg.after != nil {
				rg.after(k)
			}
		}
	}
	runBlock := func(rec *recorder, base, n int) {
		newBlock(base, n)
		for _, rg := range rungs {
			if rg.prepare != nil {
				rg.prepare(n)
			}
			if stop() {
				return // a failed ladder may have lost the fixtures its rungs need
			}
		}
		for k := 0; k < n; k++ {
			runOp(rec, 0, base, k)
		}
		for k := 0; k < n && !stop(); k++ {
			for r := 1; r < len(rungs); r++ {
				runOp(rec, r, base, k)
			}
		}
	}
	warm := newRecorder()
	runBlock(warm, 0, warmBlock)
	block := maxBlock
	if top := selfTimes(warm.spans)[rungs[0].name].MedianNs; top > 0 {
		block = int(float64(blockTime) / top)
	}
	block = max(minBlock, min(block, maxBlock))

	rec := newRecorder()
	start := time.Now()
	n := 0
	for n == 0 || (time.Since(start) < d && !stop()) {
		runBlock(rec, warmBlock+n, block)
		n += block
	}
	return rec, n
}

// rungStat is one rung name's aggregate over all ops.
type rungStat struct {
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Parent   string  `json:"parent,omitempty"`
	Count    int     `json:"count"`
	MedianNs float64 `json:"median_ns"`
	// SelfNs is the median minus, for every rung name directly below, that
	// rung's median times how often it runs per run of this one.
	SelfNs float64 `json:"self_ns"`
}

// selfTimes aggregates spans by rung name. A name is expected to sit at one
// place in the ladder (the same parent name wherever it appears).
func selfTimes(spans []span) map[string]*rungStat {
	durs := map[string][]float64{}
	stats := map[string]*rungStat{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.EndNs-s.StartNs))
		if stats[s.Name] == nil {
			st := &rungStat{Name: s.Name, Layer: s.Layer}
			if s.Parent >= 0 {
				st.Parent = spans[s.Parent].Name
			}
			stats[s.Name] = st
		}
	}
	for name, st := range stats {
		st.Count = len(durs[name])
		st.MedianNs = median(durs[name])
		st.SelfNs = st.MedianNs
	}
	for _, st := range stats {
		if p := stats[st.Parent]; p != nil {
			p.SelfNs -= st.MedianNs * float64(st.Count) / float64(p.Count)
		}
	}
	return stats
}

// layerSelf sums rung self times per layer.
func layerSelf(stats map[string]*rungStat) map[string]float64 {
	out := map[string]float64{}
	for _, st := range stats {
		out[st.Layer] += st.SelfNs
	}
	return out
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Rungs    []*rungStat `json:"rungs"`
	Spans    []span      `json:"spans"`
}
