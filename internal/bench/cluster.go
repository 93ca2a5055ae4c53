package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/workloads"
)

// Cluster ablation shape: a Zipf-skewed multi-module stream over a growing
// node count, with artifact-locality placement ablated against blind spread.
// The arrival window is short; the makespan is dominated by each replica's
// cold ramp (a dry-pool cold start costs seconds of simulated time), which
// is exactly the asymmetry the placement policy decides how many times to
// pay.
const (
	clusterModules     = 12
	clusterRatePerSec  = 5000.0
	clusterWindow      = 300 * time.Millisecond
	clusterHorizon     = 10 * time.Second
	clusterZipfS       = 1.1
	clusterSeed        = 17
	clusterDeathAt     = clusterWindow / 2
	clusterConcurrency = 2
)

// ClusterMeasurement is one cell of the cluster ablation grid.
type ClusterMeasurement struct {
	Nodes   int
	Policy  cluster.Policy
	Faulted bool
	Report  serve.Report
	Stats   serve.RouterStats
	Scale   cluster.ScaleStats
	Faults  faults.Stats
	// ArtifactBytes / ArtifactCopies are the shared wasm-* images resident
	// on live nodes after the run; cold starts are the cluster-wide dry-pool
	// fallback count.
	ArtifactBytes  int64
	ArtifactCopies int
	ColdStarts     int64
}

// clusterDCfg is the per-replica dispatcher every cell uses.
func clusterDCfg() serve.DispatcherConfig {
	return serve.DispatcherConfig{
		MaxConcurrency: clusterConcurrency,
		QueueDepth:     1 << 14,
		Policy:         serve.PolicyQueue,
		Export:         "handle",
		Arg:            servingArg,
	}
}

// busiestNode returns the index of the live node hosting the most replicas,
// so the fault arm always kills a node that actually has state to lose.
func busiestNode(s *cluster.Serving) int {
	counts := map[string]int{}
	for _, m := range s.Modules() {
		for _, n := range s.ReplicaNodes(m) {
			counts[n]++
		}
	}
	best, bestCount := 0, -1
	for i := 0; i < s.NodeCount(); i++ {
		if !s.NodeAlive(i) {
			continue
		}
		if c := counts[fmt.Sprintf("worker-%d", i)]; c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// MeasureClusterServing runs one cell: nodes x policy, optionally with a
// mid-run node death (plus two memory-pressure episodes) injected through
// the fault layer on the DES clock. The autoscaler is armed in every cell —
// pools start cold and are warmed on queue depth, so each replica pays one
// cold ramp and the policy decides how many replicas exist to ramp.
func MeasureClusterServing(nodes int, policy cluster.Policy, faulted bool) (ClusterMeasurement, error) {
	s, err := cluster.New(cluster.Config{
		Nodes:             nodes,
		Profile:           engine.WAMR,
		Policy:            policy,
		Dispatcher:        clusterDCfg(),
		AutoscaleInterval: 5 * time.Millisecond,
	})
	if err != nil {
		return ClusterMeasurement{}, err
	}
	modules := make([]string, 0, clusterModules)
	for i := 0; i < clusterModules; i++ {
		name := fmt.Sprintf("%s%d", workloads.HandlerVariantPrefix, i)
		bin, err := workloads.Binary(name)
		if err != nil {
			return ClusterMeasurement{}, err
		}
		if err := s.Deploy(name, bin); err != nil {
			return ClusterMeasurement{}, err
		}
		modules = append(modules, name)
	}

	var in *faults.Injector
	if faulted {
		in = faults.New(faults.Config{
			Seed:        clusterSeed,
			NodeDeathAt: []time.Duration{clusterDeathAt},
			PressureAt:  []time.Duration{clusterWindow / 3, 2 * clusterWindow / 3},
		})
		s.SetFaultInjector(in)
		in.ArmNodeDeath(s.Engine(), func(int) { _ = s.FailNode(busiestNode(s)) })
		in.ArmPressure(s.Engine(), func() { s.MemoryPressure(busiestNode(s)) })
	}
	s.Arm(clusterHorizon)

	rep, err := serve.RunMulti(s.Engine(), s, serve.MultiConfig{
		RatePerSec: clusterRatePerSec,
		Duration:   clusterWindow,
		Seed:       clusterSeed,
		Modules:    modules,
		ZipfS:      clusterZipfS,
	})
	if err != nil {
		return ClusterMeasurement{}, err
	}
	rs := s.Stats()
	a := rs.Aggregate
	if !a.IdentityHolds() {
		return ClusterMeasurement{}, fmt.Errorf(
			"cluster %d nodes %s faulted=%v: accounting identity broken: %+v",
			nodes, policy, faulted, a)
	}
	if !s.Quiesced() {
		return ClusterMeasurement{}, fmt.Errorf(
			"cluster %d nodes %s faulted=%v: routers not quiescent after drain",
			nodes, policy, faulted)
	}
	bytes, copies := s.SharedArtifactBytes()
	return ClusterMeasurement{
		Nodes:          nodes,
		Policy:         policy,
		Faulted:        faulted,
		Report:         rep,
		Stats:          rs,
		Scale:          s.ScaleStats(),
		Faults:         in.Stats(),
		ArtifactBytes:  bytes,
		ArtifactCopies: copies,
		ColdStarts:     s.ColdStarts(),
	}, nil
}

// AblationCluster sweeps the node count against the placement policy and
// adds a node-death arm on the largest locality cell. Gates are embedded as
// errors, not table cells:
//
//   - at 4+ nodes, locality placement must beat spread on both resident
//     shared-artifact bytes and cluster-wide cold starts (the paper's
//     memory and start-latency wins compound only when replicas stack),
//   - every cell must hold the admission identity
//     Submitted == Completed + Rejected + Expired + Failed after drain —
//     including the node-death arm, where requests cross a failover,
//   - the node-death arm must actually exercise failover: one node death
//     fired, at least one replica re-placed, and completed work afterwards.
func AblationCluster() (*Table, error) {
	t := &Table{
		Title: "Ablation: cluster routing, 1-8 nodes x placement policy (12 modules, zipf 1.1), plus node-death failover",
		Columns: []string{
			"nodes", "policy", "fault", "offered", "completed", "cold starts",
			"artifact copies", "artifact MiB", "replicas", "re-placed", "scale ups", "p99 (ms)",
		},
	}
	row := func(m ClusterMeasurement) {
		fault := "-"
		if m.Faulted {
			fault = fmt.Sprintf("node death @%s", clusterDeathAt)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m.Nodes),
			m.Policy.String(),
			fault,
			fmt.Sprintf("%d", m.Report.Offered),
			fmt.Sprintf("%d", m.Stats.Aggregate.Completed),
			fmt.Sprintf("%d", m.ColdStarts),
			fmt.Sprintf("%d", m.ArtifactCopies),
			fmt.Sprintf("%.1f", float64(m.ArtifactBytes)/(1<<20)),
			fmt.Sprintf("%d", m.Scale.Placed),
			fmt.Sprintf("%d", m.Scale.RePlaced),
			fmt.Sprintf("%d", m.Scale.Ups),
			fmt.Sprintf("%.2f", m.Report.Latency.P99*1000),
		})
	}
	for _, nodes := range []int{1, 2, 4, 8} {
		var byPolicy [2]ClusterMeasurement
		for _, policy := range []cluster.Policy{cluster.PolicyLocality, cluster.PolicySpread} {
			m, err := MeasureClusterServing(nodes, policy, false)
			if err != nil {
				return nil, err
			}
			byPolicy[policy] = m
			row(m)
		}
		loc, spr := byPolicy[cluster.PolicyLocality], byPolicy[cluster.PolicySpread]
		if nodes >= 4 {
			// Embedded gate: locality beats spread where there is room to spread.
			if loc.ArtifactBytes >= spr.ArtifactBytes {
				return nil, fmt.Errorf(
					"cluster %d nodes: locality artifact bytes %d >= spread %d",
					nodes, loc.ArtifactBytes, spr.ArtifactBytes)
			}
			if loc.ColdStarts == 0 || loc.ColdStarts >= spr.ColdStarts {
				return nil, fmt.Errorf(
					"cluster %d nodes: cold starts locality %d, spread %d — want 0 < locality < spread",
					nodes, loc.ColdStarts, spr.ColdStarts)
			}
		}
	}
	// Node-death arm: largest locality cell with a mid-run failover.
	m, err := MeasureClusterServing(4, cluster.PolicyLocality, true)
	if err != nil {
		return nil, err
	}
	if m.Faults.NodeDeaths != 1 {
		return nil, fmt.Errorf("cluster fault arm: %d node deaths fired, want 1", m.Faults.NodeDeaths)
	}
	if m.Scale.RePlaced == 0 {
		return nil, fmt.Errorf("cluster fault arm: node death re-placed no replicas: %+v", m.Scale)
	}
	if m.Stats.Aggregate.Completed == 0 {
		return nil, fmt.Errorf("cluster fault arm: nothing completed across the failover")
	}
	row(m)
	return t, nil
}
