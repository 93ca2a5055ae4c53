package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/cluster"
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

// servingDispatcherConfig is the dispatcher shape every serving experiment
// starts from: bounded queue, one-second queue deadline, the standard request.
func servingDispatcherConfig(concurrency int) serve.DispatcherConfig {
	return serve.DispatcherConfig{
		MaxConcurrency: concurrency,
		QueueDepth:     64,
		Policy:         serve.PolicyQueue,
		QueueDeadline:  time.Second,
		Export:         "handle",
		Arg:            servingArg,
	}
}

// servingRig is the one-node serving stack the serve and faults experiments
// run on: the serving workload compiled on one engine, and a replica on a
// simulated worker node built by the daemon's own recipe (cluster.NewReplica:
// pool, node attachment with the shared/private charge split and the
// memory-pressure drainer, dispatcher), so an experiment reports the charge
// the daemon would.
type servingRig struct {
	node *k8s.WorkerNode
	sim  *des.Engine
	eng  *engine.Engine
	cm   *engine.CompiledModule
	rep  *cluster.Replica
	// kubeletBytes and nodeBytes are what the pool costs while merely standing
	// by, sampled before any traffic: on the metrics-server vantage (the
	// replica's cgroup charge: its instances' private bytes) and on the
	// node's `free` vantage (that charge plus each shared artifact — compiled
	// code, baseline image — once), as in Fig 3 against Fig 4.
	kubeletBytes, nodeBytes int64
}

// newServingRig builds the rig; name is the replica's attachment name. The
// DES engine exists before any instrumented work so the tracer can run on
// simulated time for the whole lifecycle: module compile and pool
// pre-instantiation land at t=0, the request phases at their simulated
// instants. Real compile/instantiate nanoseconds ride along as span
// attributes and histograms.
func newServingRig(p engine.Profile, policy exec.TierPolicy, name string, poolSize int, dcfg serve.DispatcherConfig) (*servingRig, error) {
	kc, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	sim := des.NewEngine()
	g := &servingRig{node: kc.Nodes[0], sim: sim, eng: engine.New(p)}
	tele := Telemetry()
	if tr := tele.Tracer(); tr != nil {
		tr.SetClock(func() int64 { return int64(sim.Now()) })
		tr.SetPID(nextRunPID())
	}
	g.eng.SetTierPolicy(policy)
	g.eng.SetObserver(tele)
	bin, err := workloads.Binary(ServingWorkload)
	if err != nil {
		return nil, err
	}
	if g.cm, err = g.eng.Compile(bin); err != nil {
		return nil, err
	}
	idleBytes := g.node.OS.UsedBeyondIdle()
	g.rep, err = cluster.NewReplica(g.sim, g.eng, g.cm, g.node, name,
		serve.Config{Size: poolSize, IdleTTL: 2 * time.Second}, dcfg, tele)
	if err != nil {
		return nil, err
	}
	g.kubeletBytes = kc.Metrics.TotalWorkloadBytes()
	g.nodeBytes = g.node.OS.UsedBeyondIdle() - idleBytes
	return g, nil
}

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
	// poolNodeBytes is the same standing pool on the node's `free` vantage.
	poolNodeBytes int64
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
	conc := poolSize
	if conc == 0 {
		conc = 8
	}
	g, err := newServingRig(p, policy, fmt.Sprintf("%s-%d", p.Name, poolSize), poolSize, servingDispatcherConfig(conc))
	if err != nil {
		return ServingMeasurement{}, err
	}
	defer g.rep.Retire()
	rep := serve.Run(g.sim, g.rep.Dispatcher(), serve.LoadConfig{
		RatePerSec: ratePerSec,
		Duration:   window,
		Seed:       1,
	})
	return ServingMeasurement{
		Engine:         p.Name,
		PoolSize:       poolSize,
		RatePerSec:     ratePerSec,
		Report:         rep,
		PoolKubeletMiB: mib(g.kubeletBytes),
		poolNodeBytes:  g.nodeBytes,
		Tier1Bytes:     g.cm.Code.Tier1Bytes(),
		CacheStats:     g.eng.CacheStats(),
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
