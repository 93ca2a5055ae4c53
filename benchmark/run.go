package main

import (
	"fmt"
	"time"
)

// segments is how many equal parts of the window ops_per_s is the median of.
const segments = 5

// timedRun is the state one timed (untraced) HTTP run accumulates, over one
// child for the warm workloads and over one child per round for cold-deploy.
type timedRun struct {
	w      workload
	sc     *script
	res    *workloadResult
	conns  int
	sent   int // requests sent to the current child, warm-up included
	setups []float64

	lat      []time.Duration
	end      []time.Duration // completion offsets on the measured clock
	measured time.Duration   // measured clock: pauses between cold-deploy rounds
	ops      int             // completed ops inside stats0..stats1
	cpu      time.Duration
	mallocs  uint64
	heapKiB  []float64 // one per child measured
	refused  int
	variants int // cold-deploy variants named so far

	// Output checks, folded over every child of the run.
	children   int
	firstFail  string
	books      string // first child whose books did not balance
	coldStarts int64
}

// module is the target of request i: the workload's function, or for
// cold-deploy a never-seen variant of it.
func (t *timedRun) module(lane byte) func(int) string {
	if !t.w.Cold {
		return func(int) string { return t.w.Module }
	}
	return func(i int) string { return t.sc.variant(lane, i) }
}

// setUp boots a child and warms it: child boot, function registration, pool
// fill and Warmup checked requests. The time it took is one setup_s sample.
func (t *timedRun) setUp() (*child, error) {
	t0 := time.Now()
	c, err := startChild(t.w.Name)
	if err != nil {
		return nil, err
	}
	lr := drive(loadOpts{
		Base: c.base, Conns: t.conns, MaxOps: t.w.Warmup, First: t.variants,
		Module: t.module('w'), Script: t.sc,
	})
	t.setups = append(t.setups, time.Since(t0).Seconds())
	t.sent = lr.Attempted
	if t.w.Cold {
		t.variants += lr.Attempted
	}
	t.account(lr, false)
	return c, nil
}

// account folds one stretch of load into the run. Warm-up requests are
// checked and counted as attempted, but leave no latency sample.
func (t *timedRun) account(lr loadResult, measured bool) {
	t.res.Attempted += lr.Attempted
	t.res.Failed += lr.Failed
	t.refused += lr.Refused
	if t.firstFail == "" {
		t.firstFail = lr.FirstFail
	}
	if !measured {
		return
	}
	t.lat = append(t.lat, lr.Lat...)
	for _, e := range lr.End {
		t.end = append(t.end, t.measured+e)
	}
	t.measured += lr.Elapsed
	t.ops += lr.Attempted - lr.Failed
}

// measure runs one stretch of timed load against c between two readings of
// the child's own counters, then drains the child and checks its books.
func (t *timedRun) measure(c *child, window time.Duration, maxOps int) error {
	defer c.close()
	s0, err := c.stats()
	if err != nil {
		return err
	}
	lr := drive(loadOpts{
		Base: c.base, Conns: t.conns, MaxOps: maxOps, Window: window, First: t.variants,
		Module: t.module('r'), Script: t.sc,
	})
	s1, err := c.stats()
	if err != nil {
		return err
	}
	t.sent += lr.Attempted
	if t.w.Cold {
		t.variants += lr.Attempted
	}
	t.account(lr, true)
	t.cpu += time.Duration(s1.CPUNs - s0.CPUNs)
	t.mallocs += s1.Mallocs - s0.Mallocs
	done := lr.Attempted - lr.Failed
	switch {
	case t.w.Cold && done > 0:
		// Live heap the round's deploys left behind, per warm instance.
		t.heapKiB = append(t.heapKiB, (float64(s1.HeapAlloc)-float64(s0.HeapAlloc))/1024/float64(done*poolSize))
	case !t.w.Cold:
		// The whole warmed server's live heap, per warm instance it holds. Read
		// before the window, after a fixed number of requests: later it also
		// holds however many telemetry samples the window's ops left behind.
		t.heapKiB = append(t.heapKiB, float64(s0.HeapAlloc)/1024/poolSize)
	}
	d, err := c.drain()
	if err != nil {
		return err
	}
	t.checkBooks(d)
	return nil
}

// balance reads a drained child's books: every function's admission identity
// must hold and the dispatchers together must have seen exactly the sent
// requests. It returns the first problem ("" if none) and how many instances
// the pools started cold.
func balance(d childDrain, sent int) (problem string, coldStarts int64) {
	var submitted int64
	for _, f := range d.Functions {
		st := f.Stats
		if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed && problem == "" {
			problem = fmt.Sprintf("%s: submitted %d != completed %d + rejected %d + expired %d + failed %d",
				f.Module, st.Submitted, st.Completed, st.Rejected, st.Expired, st.Failed)
		}
		submitted += st.Submitted
		coldStarts += f.Pool.ColdStarts
	}
	if submitted != int64(sent) && problem == "" {
		problem = fmt.Sprintf("dispatchers saw %d requests, the generator sent %d", submitted, sent)
	}
	return problem, coldStarts
}

func (t *timedRun) checkBooks(d childDrain) {
	t.children++
	problem, cold := balance(d, t.sent)
	if t.books == "" {
		t.books = problem
	}
	t.coldStarts += cold
}

// runHTTP is the timed run of one HTTP workload.
func runHTTP(w workload, sc *script, seconds float64, setups int) (*workloadResult, error) {
	t := &timedRun{w: w, sc: sc, res: newResult(w, false), conns: connections()}
	window := time.Duration(seconds * float64(time.Second))
	if w.Cold {
		// One sequential client; a fresh child per round of coldRound deploys,
		// each round's boot being one set-up sample.
		t.conns = 1
		for t.measured < window {
			c, err := t.setUp()
			if err != nil {
				return nil, err
			}
			if err := t.measure(c, window-t.measured, coldRound); err != nil {
				return nil, err
			}
		}
	} else {
		// Set up several times so setup_s is a median; the last child serves
		// the window.
		for i := 1; i < setups; i++ {
			c, err := t.setUp()
			if err != nil {
				return nil, err
			}
			d, err := c.drain()
			if err != nil {
				return nil, err
			}
			t.checkBooks(d)
		}
		c, err := t.setUp()
		if err != nil {
			return nil, err
		}
		if err := t.measure(c, window, 0); err != nil {
			return nil, err
		}
	}
	t.report()
	return t.res, nil
}

// report turns the accumulated samples into the end-to-end metrics.
func (t *timedRun) report() {
	r := t.res
	r.WindowS = t.measured.Seconds()
	r.set("setup_s", median(t.setups))
	r.Setups = len(t.setups)
	reportWindow(r, durationsToMicros(t.lat), t.end, nil, t.measured, segments)
	if t.ops > 0 {
		r.set("cpu_us_per_op", float64(t.cpu)/1e3/float64(t.ops))
		r.set("allocs_per_op", float64(t.mallocs)/float64(t.ops))
	}
	if len(t.heapKiB) > 0 {
		r.set("heap_kib_per_instance", median(t.heapKiB))
	}
	r.check("replies", r.Failed == 0, "%d of %d failed, first: %s", r.Failed, r.Attempted, t.firstFail)
	r.Refused = t.refused
	r.check("refused", t.refused == 0, "%d requests refused with 429/503/504", t.refused)
	r.check("books", t.books == "" && t.children > 0, "%s (%d children drained)", t.books, t.children)
	r.check("warm", t.coldStarts == 0, "%d cold starts after pool fill", t.coldStarts)
	r.Notes = append(r.Notes, fmt.Sprintf("closed loop, %d connection(s); %d set-up(s); fail_ratio %.6f",
		t.conns, len(t.setups), failRatio(r)))
}

func failRatio(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// reportWindow sets lat_p50_us and the demoted ops_per_s and lat_p99_us, each the
// median over the window's equal segments: a stall on a shared machine then
// costs one segment, not the run. lat[i] is sample i's latency in
// microseconds, end[i] its completion offset, and weights[i] how many ops it
// stands for (nil = one each). Latency is taken over latSegments segments
// (density, with a few hundred samples in all, pools them into one). The tail
// is p99 when every segment has ten samples beyond it, otherwise the highest
// percentile of tailLadder for which that holds.
func reportWindow(r *workloadResult, lat []float64, end []time.Duration, weights []float64, window time.Duration, latSegments int) {
	r.Samples = len(lat)
	rates := segmentRates(end, weights, window, segments)
	r.set("ops_per_s", median(rates))
	r.setSpread("ops_per_s", relSpread(rates))
	p50s, tails, tailPct := segmentLatency(lat, end, window, latSegments)
	if len(p50s) > 0 {
		r.set("lat_p50_us", median(p50s))
		r.setSpread("lat_p50_us", relSpread(p50s))
	}
	if len(tails) > 0 {
		r.TailPct = tailPct
		r.set("lat_p99_us", median(tails))
	}
}
