package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
)

// TestMetricsSumOverFunctions is the accounting invariant of the metrics
// surface: on a gateway with two functions of different pool sizes, every
// unlabeled dispatch_*, pool_* and modcache_* counter and gauge on /metrics
// is the sum over the functions of what their dispatcher and pool — and,
// per distinct engine, its cache — report themselves, every router_*_total{module=...} is that shard's
// DispatcherStats, and the queue-depth/in-flight gauges the tsdb samples are
// the same sums at the window boundary. The traffic covers a warm request, a
// queue-full rejection and a queue-deadline expiry, and holds a request in
// flight on both functions across a window close.
func TestMetricsSumOverFunctions(t *testing.T) {
	a := DefaultFunction()
	b := DefaultFunction()
	b.Module = "request-handler-vb"
	b.PoolSize, b.MaxConcurrency, b.QueueDepth, b.QueueDeadline = 2, 1, 1, time.Nanosecond
	gw, err := New(Config{
		Functions:      []FunctionConfig{a, b},
		Bridge:         BridgeConfig{Dilation: 0},
		SampleInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ts := httptest.NewServer(gw)
	defer func() {
		ts.Close()
		gw.Bridge().Stop()
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if resp, body := invoke(t, client, ts.URL+"/v1/functions/"+a.Module, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm invoke: status %d body %s", resp.StatusCode, body)
	}

	// One instant before the next window boundary, one request enters a and
	// three enter b (concurrency 1, queue 1, deadline 1ns): b runs the first,
	// parks the second until it expires behind the first, and rejects the
	// third. A probe event on the boundary itself reads the live sums right
	// after the sampler closed the window over the same state.
	fnA, _ := gw.Function(a.Module)
	fnB, _ := gw.Function(b.Module)
	var boundary, probedQueue, probedInFlight int64
	settled := make(chan serve.RequestResult, 4)
	submit := func(key string, n int) {
		for i := 0; i < n; i++ {
			if err := gw.router.Submit(key, 0, func(res serve.RequestResult) { settled <- res }); err != nil {
				t.Error(err)
			}
		}
	}
	err = gw.Bridge().Do(ctx, func() {
		interval := gw.db.Interval()
		boundary = (int64(gw.sim.Now())/interval + 1) * interval
		gw.sim.At(des.Time(boundary-1), func() {
			submit(fnA.key, 1)
			submit(fnB.key, 3)
		})
		gw.sim.At(des.Time(boundary), func() {
			for _, fn := range gw.Functions() {
				probedQueue += int64(fn.Dispatcher().QueueLen())
				probedInFlight += int64(fn.Dispatcher().InFlight())
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		select {
		case <-settled:
		case <-ctx.Done():
			t.Fatalf("%d of 4 requests settled", i)
		}
	}
	if st := fnB.Dispatcher().Stats(); st.Completed != 1 || st.Rejected != 1 || st.Expired != 1 {
		t.Fatalf("b settled %+v, want one completed, one rejected, one expired", st)
	}

	// What the components say, summed.
	want := map[string]int64{}
	engines := map[*engine.Engine]bool{}
	for _, fn := range gw.Functions() {
		if eng := fn.Engine(); !engines[eng] {
			engines[eng] = true
			c := eng.CacheStats()
			want["modcache_hits_total"] += int64(c.Hits)
			want["modcache_misses_total"] += int64(c.Misses)
			want["modcache_evictions_total"] += int64(c.Evictions)
			want["modcache_resident_bytes"] += c.Bytes
			want["modcache_tier1_bytes"] += c.Tier1Bytes
		}
		d, p := fn.Dispatcher().Stats(), fn.Pool().Stats()
		for name, v := range map[string]int64{
			"dispatch_submitted_total": d.Submitted,
			"dispatch_completed_total": d.Completed,
			"dispatch_rejected_total":  d.Rejected,
			"dispatch_expired_total":   d.Expired,
			"dispatch_failed_total":    d.Failed,
			"dispatch_retries_total":   d.Retries,
			"dispatch_timeouts_total":  d.TimedOut,
			"dispatch_queue_depth":     int64(fn.Dispatcher().QueueLen()),
			"dispatch_in_flight":       int64(fn.Dispatcher().InFlight()),
			"pool_warm_hits_total":     p.WarmHits,
			"pool_cold_starts_total":   p.ColdStarts,
			"pool_recycled_total":      p.Recycled,
			"pool_discarded_total":     p.Discarded,
			"pool_evicted_total":       p.Evicted,
			"pool_idle_instances":      int64(fn.Pool().Idle()),
			"pool_leased_instances":    int64(fn.Pool().Leased()),
			"pool_memory_bytes":        fn.Pool().MemoryBytes(),
		} {
			want[name] += v
		}
		for name, v := range map[string]int64{
			"router_submitted_total": d.Submitted,
			"router_completed_total": d.Completed,
			"router_rejected_total":  d.Rejected,
			"router_expired_total":   d.Expired,
			"router_failed_total":    d.Failed,
		} {
			want[obs.Labeled(name, "module", fn.Module())] = v
		}
	}
	if want["pool_idle_instances"] != int64(a.PoolSize+b.PoolSize) || want["dispatch_completed_total"] != 3 {
		t.Fatalf("fixture did not settle: %d idle, %d completed", want["pool_idle_instances"], want["dispatch_completed_total"])
	}

	_, body := get(t, client, ts.URL+"/metrics")
	got, kind := promSamples(t, body)
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("/metrics %s = %d (present %v), components sum to %d", name, g, ok, v)
		}
	}
	// And nothing of these families is exported that no component owns.
	for name := range got {
		owned := strings.HasPrefix(name, "dispatch_") || strings.HasPrefix(name, "pool_") || strings.HasPrefix(name, "modcache_")
		if _, ok := want[name]; owned && !ok && (kind[name] == "counter" || kind[name] == "gauge") {
			t.Errorf("/metrics exports %s, which no Stats() accounts for", name)
		}
	}

	_, body = get(t, client, ts.URL+"/v1/timeseries")
	var series TimeSeriesResponse
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Windows) == 0 || series.Windows[len(series.Windows)-1].End != boundary {
		t.Fatalf("last window of %d does not end on the probed boundary %d", len(series.Windows), boundary)
	}
	if probedInFlight != 2 || probedQueue != 1 {
		t.Fatalf("probe saw %d in flight and %d queued, want 2 and 1", probedInFlight, probedQueue)
	}
	window := map[string]int64{}
	for _, g := range series.Windows[len(series.Windows)-1].Gauges {
		window[g.Name] = g.Value
	}
	if window["dispatch_in_flight"] != probedInFlight || window["dispatch_queue_depth"] != probedQueue {
		t.Errorf("window closed with %v, dispatchers held %d in flight and %d queued", window, probedInFlight, probedQueue)
	}
}
