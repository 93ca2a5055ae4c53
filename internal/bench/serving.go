package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// ServingWorkload is the guest module every gateway request invokes.
const ServingWorkload = "request-handler"

// servingArg sizes each request: ~27k interpreted instructions, a few
// simulated milliseconds warm versus whole simulated seconds cold.
const servingArg = 500

// ServingMeasurement is one cell of the serving sweep.
type ServingMeasurement struct {
	Engine     string
	PoolSize   int
	RatePerSec float64
	Report     serve.Report
	// PoolKubeletMiB is the pool memory the metrics-server vantage reports
	// right after pool creation: pooled instances occupy node memory before
	// a single request arrives, exactly like idle pods in the density runs.
	PoolKubeletMiB float64
	// Tier1Bytes is the tier-1 artifact the run published (0: never tiered
	// up).
	Tier1Bytes int64
	// CacheStats is the engine module cache's final counters.
	CacheStats cache.Stats
}

// MeasureServing runs one open-loop load experiment: a warm pool of poolSize
// instances (0 = cold-only) for one engine profile, attached to a simulated
// worker node so pool memory is kubelet-visible, under a Poisson arrival
// stream of ratePerSec for the given simulated window. Tiering runs under the
// default hotness policy.
func MeasureServing(p engine.Profile, poolSize int, ratePerSec float64, window time.Duration) (ServingMeasurement, error) {
	return MeasureServingTiered(p, poolSize, ratePerSec, window, exec.DefaultTierPolicy())
}

// MeasureServingTiered is MeasureServing with an explicit tier policy — the
// knob the tiers ablation turns (off / hotness / eager).
func MeasureServingTiered(p engine.Profile, poolSize int, ratePerSec float64, window time.Duration, policy exec.TierPolicy) (ServingMeasurement, error) {
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return ServingMeasurement{}, err
	}
	att, err := cluster.Nodes[0].AttachWarmPool(fmt.Sprintf("%s-%d", p.Name, poolSize))
	if err != nil {
		return ServingMeasurement{}, err
	}
	defer att.Detach()

	// The DES engine exists before any instrumented work so the tracer can
	// run on simulated time for the whole lifecycle: module compile and pool
	// pre-instantiation land at t=0, the request phases at their simulated
	// instants. Real compile/instantiate nanoseconds ride along as span
	// attributes and histograms.
	sim := des.NewEngine()
	tele := Telemetry()
	if tr := tele.Tracer(); tr != nil {
		tr.SetClock(func() int64 { return int64(sim.Now()) })
		tr.SetPID(nextRunPID())
	}

	eng := engine.New(p)
	eng.SetTierPolicy(policy)
	eng.SetObserver(tele)
	att.SetObserver(tele)
	bin, err := workloads.Binary(ServingWorkload)
	if err != nil {
		return ServingMeasurement{}, err
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		return ServingMeasurement{}, err
	}
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: poolSize, IdleTTL: 2 * time.Second})
	if err != nil {
		return ServingMeasurement{}, err
	}
	pool.SetMemoryListener(att.Sync)
	// Sample the kubelet vantage before any traffic: this is what the pool
	// costs the node while merely standing by.
	kubeletMiB := mib(cluster.Metrics.TotalWorkloadBytes())

	conc := poolSize
	if conc == 0 {
		conc = 8
	}
	d := serve.NewDispatcher(sim, pool, serve.DispatcherConfig{
		MaxConcurrency: conc,
		QueueDepth:     64,
		Policy:         serve.PolicyQueue,
		QueueDeadline:  time.Second,
		Export:         "handle",
		Arg:            servingArg,
	})
	d.SetObserver(tele)
	rep := serve.Run(sim, d, serve.LoadConfig{
		RatePerSec: ratePerSec,
		Duration:   window,
		Seed:       1,
	})
	pool.SetMemoryListener(nil)
	return ServingMeasurement{
		Engine:         p.Name,
		PoolSize:       poolSize,
		RatePerSec:     ratePerSec,
		Report:         rep,
		PoolKubeletMiB: kubeletMiB,
		Tier1Bytes:     cm.Code.Tier1Bytes(),
		CacheStats:     eng.CacheStats(),
	}, nil
}

// ServingPoolSizes and ServingRates define the sweep grid.
var (
	ServingPoolSizes = []int{0, 4, 16}
	ServingRates     = []float64{100, 300}
)

// Serving sweeps pool size x arrival rate for every engine profile and
// renders the gateway serving table: latency percentiles, admission
// outcomes, and the kubelet-visible pool memory.
func Serving() (*Table, error) {
	const window = 2 * time.Second
	t := &Table{
		Title: "Serving: warm-pool gateway, pool size x arrival rate (2s open-loop Poisson)",
		Columns: []string{
			"engine", "pool", "rate (r/s)", "offered", "done", "rejected",
			"cold", "p50 (ms)", "p95 (ms)", "p99 (ms)", "pool mem kubelet (MiB)",
		},
	}
	warmP50 := map[string]float64{}
	coldP50 := map[string]float64{}
	for _, p := range engine.Profiles() {
		for _, size := range ServingPoolSizes {
			for _, rate := range ServingRates {
				m, err := MeasureServing(p, size, rate, window)
				if err != nil {
					return nil, err
				}
				rep := m.Report
				t.Rows = append(t.Rows, []string{
					m.Engine,
					fmt.Sprintf("%d", size),
					fmt.Sprintf("%.0f", rate),
					fmt.Sprintf("%d", rep.Offered),
					fmt.Sprintf("%d", rep.Dispatcher.Completed),
					fmt.Sprintf("%d", rep.Dispatcher.Rejected+rep.Dispatcher.Expired),
					fmt.Sprintf("%d", rep.Pool.ColdStarts),
					fmt.Sprintf("%.3f", rep.Latency.P50*1e3),
					fmt.Sprintf("%.3f", rep.Latency.P95*1e3),
					fmt.Sprintf("%.3f", rep.Latency.P99*1e3),
					fmt.Sprintf("%.2f", m.PoolKubeletMiB),
				})
				// Reference cells for the warm-vs-cold note: the largest pool
				// and the cold-only pool, each at the lowest (uncongested) rate.
				if rate == ServingRates[0] {
					if size == ServingPoolSizes[len(ServingPoolSizes)-1] && rep.WarmLatency.N > 0 {
						warmP50[p.Name] = rep.WarmLatency.P50
					}
					if size == 0 && rep.ColdLatency.N > 0 {
						coldP50[p.Name] = rep.ColdLatency.P50
					}
				}
			}
		}
	}
	for _, p := range engine.Profiles() {
		w, c := warmP50[p.Name], coldP50[p.Name]
		if w > 0 && c > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: warm p50 %.3f ms vs cold p50 %.0f ms (%.0fx faster warm)",
				p.Name, w*1e3, c*1e3, c/w))
		}
	}
	t.Notes = append(t.Notes,
		"pool memory is charged to /kubepods/warmpool-* and visible to the metrics-server, like pod memory in fig3-fig7")
	return t, nil
}
