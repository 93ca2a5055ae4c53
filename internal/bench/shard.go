package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/workloads"
)

// The shard ablation isolates the multi-function dispatch architecture: the
// same multi-module request stream admitted through the sharded router
// (lock-free shard lookup, per-DES-event batch coalescing, lock-free stats
// scrapes) versus the single-queue baseline (one global mutex across every
// submission and every introspection read — the architecture the router
// replaced, rebuilt below as singleQueue because no product path takes it
// any more). Two harnesses:
//
//   - a wall-clock funnel: N client goroutines push module keys to the one
//     DES goroutine and scrape router stats after every request, exactly the
//     per-request introspection the gateway hot path performs (X-Queue-Len
//     headers, /metrics, /v1/cluster). The submit-path throughput ratio at 8
//     clients is the headline number and a hard gate (>= 2x).
//   - a virtual-time latency sweep: RunMulti under Zipf s=1.1 vs uniform
//     popularity across 64 modules, showing p99 degrading gracefully when
//     one shard runs hot while the rest idle.

const (
	// shardModules is the workload's module-population size: 64 distinct
	// handler variants, each its own digest, pool, and dispatcher shard.
	shardModules = 64
	// shardFunnelRequests is the per-cell request count for the wall-clock
	// funnel; large enough that setup noise vanishes and the submit phase
	// is tens of milliseconds, small enough that the four cells stay under
	// a few wall seconds.
	shardFunnelRequests = 96000
	// shardFunnelReps reruns each wall-clock cell and keeps the best
	// throughput: contention benchmarks are noisy downward (scheduler
	// preemption), never noisy upward.
	shardFunnelReps = 3
	// shardArg keeps guest execution almost free so admission cost, not
	// interpretation, dominates the funnel's wall clock.
	shardArg = 4
	// shardZipfS is the popularity skew the ISSUE targets.
	shardZipfS = 1.1
	// shardSpeedupFloor is the acceptance gate on sharded vs single-queue
	// throughput at shardFunnelClients concurrent clients.
	shardSpeedupFloor = 2.0
	// shardFunnelClients is the concurrency level the gate applies to.
	shardFunnelClients = 8
	// shardFunnelScrapers is how many goroutines hammer hot-path
	// introspection for the whole submit phase, modeling the metrics poller
	// and response-header reads of a live gateway under load.
	shardFunnelScrapers = 4
	// shardP99Ceiling bounds how much worse Zipf-skewed p99 may be than the
	// uniform workload's at the same rate — "degrades gracefully": the hot
	// shard queues, it does not take the tail to infinity or starve the
	// cold shards.
	shardP99Ceiling = 10.0
)

// shardTarget is the submit path under test: what the funnel's DES goroutine
// submits through and what its scrapers and clients read shard load from.
type shardTarget interface {
	Submit(key string, tid int64, done func(serve.RequestResult)) error
	ShardLoad(key string) (queueLen, inFlight int, ok bool)
}

// singleQueue is the pre-sharding baseline: one mutex held across every
// submission and every introspection read, and full per-request admission
// (Dispatcher.Submit, no coalescing) behind it.
type singleQueue struct {
	mu sync.Mutex
	rt *serve.Router
}

func (q *singleQueue) Submit(key string, _ int64, done func(serve.RequestResult)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	d, ok := q.rt.Lookup(key)
	if !ok {
		return serve.ErrUnknownModule
	}
	d.Submit(done)
	return nil
}

func (q *singleQueue) ShardLoad(key string) (int, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rt.ShardLoad(key)
}

// Funnel cell names, as they appear in the table's mode column.
const (
	shardModeSharded     = "sharded"
	shardModeSingleQueue = "single-queue"
)

// newShardRouter builds a router over n handler-variant modules on a fresh
// DES engine: one compiled module, single-instance warm pool, and dispatcher
// per shard.
func newShardRouter(n int) (*des.Engine, *serve.Router, []string, error) {
	sim := des.NewEngine()
	rt := serve.NewRouter(sim, serve.RouterConfig{})
	eng := engine.New(engine.WAMR)
	modules := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", workloads.HandlerVariantPrefix, i)
		bin, err := workloads.Binary(name)
		if err != nil {
			return nil, nil, nil, err
		}
		cm, err := eng.Compile(bin)
		if err != nil {
			return nil, nil, nil, err
		}
		pool, err := serve.NewPool(eng, cm, serve.Config{Size: 1})
		if err != nil {
			return nil, nil, nil, err
		}
		d := serve.NewDispatcher(sim, pool, serve.DispatcherConfig{
			MaxConcurrency: 2,
			QueueDepth:     1 << 17,
			Policy:         serve.PolicyQueue,
			Export:         "handle",
			Arg:            shardArg,
		})
		if err := rt.Register(name, name, d); err != nil {
			return nil, nil, nil, err
		}
		modules = append(modules, name)
	}
	return sim, rt, modules, nil
}

// shardFunnelResult is one wall-clock funnel cell.
type shardFunnelResult struct {
	Mode       string
	Clients    int
	Requests   int
	SubmitWall time.Duration // submission phase: all requests through the submit path
	DrainWall  time.Duration // execution phase: engine stepped dry (same work in both modes)
	Throughput float64       // requests per wall second through the submit path
	Stats      serve.RouterStats
}

// runShardFunnel pushes shardFunnelRequests Zipf-picked module keys from
// `clients` producer goroutines through a channel to the DES goroutine,
// which injects each at the current virtual instant — the backlog-drain
// shape the gateway bridge's greedy channel drain produces when requests
// arrive faster than events step. Every producer scrapes rt.Stats() after
// every push, the introspection load the gateway puts on the hot path
// (X-Queue-Len headers, /metrics, /v1/cluster).
//
// The submit clock covers exactly the submit path: in single-queue mode
// every request pays full per-request admission under the global mutex,
// contended by the scrapers; in sharded mode the lookup is one atomic load,
// the scrapers never block, and admission is amortized into per-shard
// batches. The execution drain that follows retires identical work in both
// modes and is reported separately.
func runShardFunnel(mode string, clients int) (shardFunnelResult, error) {
	sim, rt, modules, err := newShardRouter(shardModules)
	if err != nil {
		return shardFunnelResult{}, err
	}
	var target shardTarget = rt
	if mode == shardModeSingleQueue {
		target = &singleQueue{rt: rt}
	}
	perClient := shardFunnelRequests / clients
	total := perClient * clients
	// Keys travel in bursts, the shape the gateway bridge's greedy channel
	// drain hands the DES goroutine; the channel hop is amortized identically
	// in both modes so the per-request cost left is admission itself.
	const burst = 64
	keyCh := make(chan []string, 64)

	// Continuous introspection runs for the whole submit phase, the load a
	// metrics poller plus the per-request header reads put on a live
	// gateway: in sharded mode these are atomic reads the submit path never
	// notices; in the single-queue baseline every one serializes against
	// admission on the global lock.
	var scrapeStop atomic.Bool
	var scrapeWG sync.WaitGroup
	for s := 0; s < shardFunnelScrapers; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for !scrapeStop.Load() {
				for _, m := range modules {
					q, f, _ := target.ShardLoad(m)
					_ = q + f
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			zipf := rand.NewZipf(rng, shardZipfS, 1, uint64(len(modules)-1))
			batch := make([]string, 0, burst)
			for i := 0; i < perClient; i++ {
				m := modules[zipf.Uint64()]
				batch = append(batch, m)
				// The per-request introspection read the gateway performs for
				// its response headers: lock-free in sharded mode, a
				// global-mutex acquisition in the baseline.
				q, f, _ := target.ShardLoad(m)
				_ = q + f
				if len(batch) == burst {
					keyCh <- batch
					batch = make([]string, 0, burst)
				}
			}
			if len(batch) > 0 {
				keyCh <- batch
			}
		}(c)
	}
	go func() { wg.Wait(); close(keyCh) }()

	// The consumer is the one DES goroutine of the router's threading
	// contract: every waiting key enters at the same virtual instant. The
	// submit clock accumulates only time spent inside the submit loop, per
	// burst — channel waits and producer/scraper timeslices stay outside it,
	// while any blocking the introspection load imposes on admission (the
	// architectural difference under test) lands inside it.
	var submitBusy time.Duration
	for batch := range keyCh {
		t0 := time.Now()
		for _, key := range batch {
			if err := target.Submit(key, 0, nil); err != nil {
				return shardFunnelResult{}, err
			}
		}
		submitBusy += time.Since(t0)
	}
	scrapeStop.Store(true)
	scrapeWG.Wait()

	drainStart := time.Now()
	sim.Run()
	drainWall := time.Since(drainStart)

	st := rt.Stats()
	if got := st.Aggregate.Submitted; got != int64(total) {
		return shardFunnelResult{}, fmt.Errorf("shard funnel (%s, %d clients): submitted %d, want %d",
			mode, clients, got, total)
	}
	for _, sh := range st.Shards {
		if !sh.IdentityHolds() {
			return shardFunnelResult{}, fmt.Errorf("shard funnel (%s, %d clients): shard %s identity violated: %+v",
				mode, clients, sh.Module, sh.Stats)
		}
	}
	if !st.IdentityHolds() {
		return shardFunnelResult{}, fmt.Errorf("shard funnel (%s, %d clients): aggregate identity violated: %+v",
			mode, clients, st.Aggregate)
	}
	return shardFunnelResult{
		Mode:       mode,
		Clients:    clients,
		Requests:   total,
		SubmitWall: submitBusy,
		DrainWall:  drainWall,
		Throughput: float64(total) / submitBusy.Seconds(),
		Stats:      st,
	}, nil
}

// bestShardFunnel runs a funnel cell shardFunnelReps times and keeps the
// highest-throughput rep.
func bestShardFunnel(mode string, clients int) (shardFunnelResult, error) {
	var best shardFunnelResult
	for rep := 0; rep < shardFunnelReps; rep++ {
		r, err := runShardFunnel(mode, clients)
		if err != nil {
			return shardFunnelResult{}, err
		}
		if r.Throughput > best.Throughput {
			best = r
		}
	}
	return best, nil
}

// shardLatencyCell is one virtual-time RunMulti sweep cell.
type shardLatencyCell struct {
	Dist    string
	Rate    float64
	Report  serve.Report
	Hottest serve.ModuleReport
	Stats   serve.RouterStats
}

// runShardLatency sweeps RunMulti at one rate under the given popularity
// distribution (zipfS 0 = uniform). Pure virtual time: deterministic.
func runShardLatency(zipfS float64, rate float64) (shardLatencyCell, error) {
	sim, rt, modules, err := newShardRouter(shardModules)
	if err != nil {
		return shardLatencyCell{}, err
	}
	rep, err := serve.RunMulti(sim, rt, serve.MultiConfig{
		RatePerSec: rate,
		Duration:   time.Second,
		Seed:       42,
		Modules:    modules,
		ZipfS:      zipfS,
	})
	if err != nil {
		return shardLatencyCell{}, err
	}
	st := rt.Stats()
	if !st.IdentityHolds() {
		return shardLatencyCell{}, fmt.Errorf("shard latency (s=%.1f rate=%.0f): identity violated: %+v",
			zipfS, rate, st.Aggregate)
	}
	cell := shardLatencyCell{Rate: rate, Report: rep, Stats: st, Dist: "uniform"}
	if zipfS > 0 {
		cell.Dist = fmt.Sprintf("zipf s=%.1f", zipfS)
	}
	if len(rep.Modules) > 0 {
		cell.Hottest = rep.Modules[0]
	}
	return cell, nil
}

// AblationShard is the sharded-dispatch experiment: wall-clock submit-path
// throughput (sharded vs single-queue, 1 and 8 clients) plus the Zipf
// latency sweep. The >= 2x speedup at 8 clients and the graceful-p99 bound
// are hard gates — the experiment fails rather than report a regression.
func AblationShard() (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf(
			"Ablation: sharded dispatch + batching vs single-queue (%d modules, zipf s=%.1f, %d reqs/cell, best of %d)",
			shardModules, shardZipfS, shardFunnelRequests, shardFunnelReps),
		Columns: []string{
			"harness", "mode", "clients/dist", "requests", "submit ms / rate",
			"drain ms / p50 ms", "submit req/s / p99 ms", "batches", "max batch",
		},
	}

	// Wall-clock funnel grid: mode x clients.
	funnel := map[string]shardFunnelResult{}
	for _, mode := range []string{shardModeSingleQueue, shardModeSharded} {
		for _, clients := range []int{1, shardFunnelClients} {
			r, err := bestShardFunnel(mode, clients)
			if err != nil {
				return nil, err
			}
			funnel[fmt.Sprintf("%s/%d", mode, clients)] = r
			t.Rows = append(t.Rows, []string{
				"funnel", mode, fmt.Sprintf("%d clients", clients),
				fmt.Sprintf("%d", r.Requests),
				fmt.Sprintf("%.1f", float64(r.SubmitWall.Microseconds())/1000),
				fmt.Sprintf("%.1f", float64(r.DrainWall.Microseconds())/1000),
				fmt.Sprintf("%.0f", r.Throughput),
				fmt.Sprintf("%d", r.Stats.Batches),
				fmt.Sprintf("%d", r.Stats.MaxBatch),
			})
		}
	}

	base := funnel[fmt.Sprintf("%s/%d", shardModeSingleQueue, shardFunnelClients)]
	shrd := funnel[fmt.Sprintf("%s/%d", shardModeSharded, shardFunnelClients)]
	speedup := shrd.Throughput / base.Throughput
	if speedup < shardSpeedupFloor {
		return nil, fmt.Errorf(
			"shard: sharded submit-path throughput at %d clients is %.0f req/s vs single-queue %.0f (%.2fx), below the %.1fx gate",
			shardFunnelClients, shrd.Throughput, base.Throughput, speedup, shardSpeedupFloor)
	}
	if shrd.Stats.MaxBatch < 2 {
		return nil, fmt.Errorf("shard: sharded funnel never coalesced a batch (max batch %d)", shrd.Stats.MaxBatch)
	}

	// Virtual-time latency sweep: zipf vs uniform at rising rates.
	var p99Ratio float64
	for _, rate := range []float64{2000, 8000, 32000} {
		zipf, err := runShardLatency(shardZipfS, rate)
		if err != nil {
			return nil, err
		}
		uni, err := runShardLatency(0, rate)
		if err != nil {
			return nil, err
		}
		for _, cell := range []shardLatencyCell{uni, zipf} {
			hot := "-"
			if cell.Hottest.Offered > 0 {
				hot = fmt.Sprintf("hot %.0f%%", 100*float64(cell.Hottest.Offered)/float64(cell.Report.Offered))
			}
			t.Rows = append(t.Rows, []string{
				"latency", "sharded", cell.Dist,
				fmt.Sprintf("%d", cell.Report.Offered),
				fmt.Sprintf("%.0f/s %s", cell.Rate, hot),
				fmt.Sprintf("%.3f", cell.Report.Latency.P50*1e3),
				fmt.Sprintf("%.3f", cell.Report.Latency.P99*1e3),
				fmt.Sprintf("%d", cell.Stats.Batches),
				fmt.Sprintf("%d", cell.Stats.MaxBatch),
			})
		}
		if uni.Report.Latency.P99 > 0 {
			ratio := zipf.Report.Latency.P99 / uni.Report.Latency.P99
			if ratio > p99Ratio {
				p99Ratio = ratio
			}
			if ratio > shardP99Ceiling {
				return nil, fmt.Errorf(
					"shard: zipf p99 %.3fms is %.1fx uniform p99 %.3fms at %.0f req/s, above the %.0fx graceful-degradation bound",
					zipf.Report.Latency.P99*1e3, ratio, uni.Report.Latency.P99*1e3, rate, shardP99Ceiling)
			}
		}
		if zipf.Report.Dispatcher.Completed == 0 {
			return nil, fmt.Errorf("shard: zipf sweep at %.0f req/s completed nothing", rate)
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("submit-path speedup at %d clients: %.2fx (sharded %.0f req/s vs single-queue %.0f; gate >= %.1fx)",
			shardFunnelClients, speedup, shrd.Throughput, base.Throughput, shardSpeedupFloor),
		fmt.Sprintf("sharded funnel batching at %d clients: %d batches over %d requests (mean %.1f/batch, max %d)",
			shardFunnelClients, shrd.Stats.Batches, shrd.Stats.BatchedRequests,
			float64(shrd.Stats.BatchedRequests)/float64(max(shrd.Stats.Batches, 1)), shrd.Stats.MaxBatch),
		fmt.Sprintf("worst zipf/uniform p99 ratio across rates: %.2fx (bound %.0fx) — hot shard queues, cold shards unaffected",
			p99Ratio, shardP99Ceiling),
		"conservation identity (submitted == completed+rejected+expired+failed) verified per shard and in aggregate for every cell",
	)
	return t, nil
}
