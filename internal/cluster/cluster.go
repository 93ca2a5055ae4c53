// Package cluster is the cluster-level serving tier: it spreads invokes
// across per-node serve.Routers on a simulated multi-node Kubernetes
// cluster, scales each replica's warm pool up on queue depth (and down on
// idle), and places module replicas by artifact locality — a
// node already holding the module's shared wasm-code:/wasm-data: images is
// preferred over an empty one, because the paper's memory win (one shared
// artifact copy per node) and the cold-start win (a warm compile cache)
// both compound only when replicas of a module stack on the same nodes.
// Node death and memory-pressure episodes from internal/faults drive the
// failover path end to end: dead nodes drain their in-flight work, lost
// replicas are re-placed on survivors, and subsequent requests re-route.
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
)

// ErrNoLiveNode refuses work when every node has failed.
var ErrNoLiveNode = errors.New("cluster: no live node")

// ErrUnknownModule mirrors serve.ErrUnknownModule for undeployed keys.
var ErrUnknownModule = serve.ErrUnknownModule

// Policy selects the placement strategy.
type Policy int

const (
	// PolicyLocality (default) routes a module's traffic to the least-loaded
	// replica already hosting it, placing a replica only for the first
	// request or after its node fails. Nodes are scored by resident shared
	// artifacts, free memory as tiebreak.
	PolicyLocality Policy = iota
	// PolicySpread is the blind round-robin baseline the ablation measures
	// against: every live node ends up hosting every module, paying one
	// artifact copy and one cold ramp per node.
	PolicySpread
)

// String names the policy for experiment tables.
func (p Policy) String() string {
	if p == PolicySpread {
		return "spread"
	}
	return "locality"
}

// The autoscaler's thresholds. A tick grows a replica's pool (doubling, up to
// maxPoolSize) when its queue holds at least queueHigh requests and its
// node's metrics-server reading has minFreeBytes available; shrinkAfter
// consecutive idle ticks halve it.
const (
	queueHigh    = 4
	maxPoolSize  = 8
	shrinkAfter  = 200 // ~1s idle at a 5ms tick: past a drain, so a ramp is paid once
	minFreeBytes = 64 << 20
)

// Config shapes one serving cluster.
type Config struct {
	// Nodes is the worker-node count; <= 0 means 1.
	Nodes int
	// Profile is the engine profile every replica runs.
	Profile engine.Profile
	// Policy selects locality (default) or spread placement.
	Policy Policy
	// PoolSize is a new replica's initial warm size. 0 (the usual setting)
	// starts cold and lets the autoscaler warm it on demand.
	PoolSize int
	// Dispatcher configures every replica's dispatcher (admission, export,
	// retries...).
	Dispatcher serve.DispatcherConfig
	// AutoscaleInterval is the autoscaler's evaluation tick on the DES clock;
	// 0 disables it (pools stay at PoolSize).
	AutoscaleInterval time.Duration
	// Telemetry enables node-labeled cluster metrics; nil disables
	// observation.
	Telemetry *obs.Telemetry
}

// ScaleStats counts control-loop decisions.
type ScaleStats struct {
	// Ups / Downs count pool grow / shrink actions.
	Ups, Downs int
	// Placed counts replica placements; RePlaced is the subset forced by
	// node failure.
	Placed, RePlaced int
}

// nodeState is one worker node's serving surface: its router and its engine
// (replicas of a module on one node compile once). Liveness is the k8s
// node's own (w.Alive).
type nodeState struct {
	idx    int
	w      *k8s.WorkerNode
	router *serve.Router
	eng    *engine.Engine
}

// moduleState is one deployed module and its replicas. all keeps retired
// (dead-node) replicas so outcome stats stay conserved across failover.
type moduleState struct {
	name      string
	bin       []byte
	artifacts []engine.SharedArtifact
	live      []*replica
	all       []*replica
}

// on returns this module's live replica on n, or nil.
func (m *moduleState) on(n *nodeState) *replica {
	for _, r := range m.live {
		if r.n == n {
			return r
		}
	}
	return nil
}

// replica is one placed Replica plus the cluster's bookkeeping about it;
// routed is the one count every routed total (per node, per {module, node})
// is summed from.
type replica struct {
	*Replica
	m         *moduleState
	n         *nodeState
	idleTicks int
	routed    int64
}

// Serving is the cluster front door. All request-path and control-loop
// methods run on the one goroutine driving the DES engine, like the
// dispatcher they feed.
type Serving struct {
	eng     *des.Engine
	cfg     Config
	K       *k8s.Cluster
	nodes   []*nodeState
	modules map[string]*moduleState
	order   []string
	rr      int
	attSeq  int
	scale   ScaleStats
}

// New builds an idle serving cluster: nodes up, no modules deployed.
func New(cfg Config) (*Serving, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	kc := k8s.DefaultClusterConfig()
	kc.NumNodes = cfg.Nodes
	k, err := k8s.NewCluster(kc)
	if err != nil {
		return nil, err
	}
	s := &Serving{
		eng:     k.Engine,
		cfg:     cfg,
		K:       k,
		modules: map[string]*moduleState{},
	}
	tele := cfg.Telemetry
	k.SetObserver(tele)
	for i, w := range k.Nodes {
		n := &nodeState{
			idx:    i,
			w:      w,
			router: serve.NewRouter(s.eng, serve.RouterConfig{}),
			eng:    engine.New(cfg.Profile),
		}
		n.router.SetObserver(tele)
		n.eng.SetObserver(tele)
		s.nodes = append(s.nodes, n)
	}
	tele.Metrics().SetSource(s, s.collect)
	return s, nil
}

// collect is the serving tier's metric source: routed totals (retired
// replicas included), live replicas and liveness per node, and ScaleStats.
// Like every read of Serving it belongs on the goroutine driving the DES
// engine, or after Run returns.
func (s *Serving) collect(counter, gauge func(string, int64)) {
	routed := s.RoutedByNode()
	for i, n := range s.nodes {
		alive := int64(0)
		if n.w.Alive() {
			alive = 1
		}
		counter(obs.Labeled("cluster_routed_total", "node", n.w.Name), routed[i])
		gauge(obs.Labeled("cluster_replicas", "node", n.w.Name), int64(len(s.replicasOn(n))))
		gauge(obs.Labeled("cluster_node_alive", "node", n.w.Name), alive)
	}
	for _, name := range s.order {
		for _, r := range s.modules[name].all {
			counter(obs.Labeled2("cluster_routed_total", "module", name, "node", r.n.w.Name), r.routed)
		}
	}
	counter("cluster_scale_ups_total", int64(s.scale.Ups))
	counter("cluster_scale_downs_total", int64(s.scale.Downs))
	counter("cluster_replaced_total", int64(s.scale.RePlaced))
}

// Engine exposes the DES engine driving the cluster.
func (s *Serving) Engine() *des.Engine { return s.eng }

// Run drives the simulation until quiescent.
func (s *Serving) Run() des.Time { return s.eng.Run() }

// SetFaultInjector arms in on every node's engine.
func (s *Serving) SetFaultInjector(in *faults.Injector) {
	for _, n := range s.nodes {
		n.eng.SetFaultInjector(in)
	}
}

// Deploy registers a module for serving. Placement is lazy: the first routed
// request creates the first replica.
func (s *Serving) Deploy(name string, bin []byte) error {
	if _, dup := s.modules[name]; dup {
		return fmt.Errorf("cluster: module %q already deployed", name)
	}
	s.modules[name] = &moduleState{name: name, bin: bin}
	s.order = append(s.order, name)
	return nil
}

// Modules lists deployed module names in deploy order.
func (s *Serving) Modules() []string { return append([]string(nil), s.order...) }

// Submit routes one request to the named module, placing a replica if the
// module has none reachable. Implements serve.MultiTarget.
func (s *Serving) Submit(key string, tid int64, done func(serve.RequestResult)) error {
	m, ok := s.modules[key]
	if !ok {
		return ErrUnknownModule
	}
	r, err := s.route(m)
	if err != nil {
		return err
	}
	r.routed++
	return r.n.router.Submit(key, tid, done)
}

// route picks (or places) the replica serving this request.
func (s *Serving) route(m *moduleState) (*replica, error) {
	if s.cfg.Policy == PolicySpread {
		// Blind round-robin over live nodes: every node ends up hosting its
		// own replica of every module — one artifact copy and one cold ramp
		// per node, the baseline the locality gate measures against.
		for range s.nodes {
			n := s.nodes[s.rr%len(s.nodes)]
			s.rr++
			if !n.w.Alive() {
				continue
			}
			if r := m.on(n); r != nil {
				return r, nil
			}
			return s.place(m, n, false)
		}
		return nil, ErrNoLiveNode
	}
	var best *replica
	bestLoad := 0
	for _, r := range m.live {
		load := r.disp.QueueLen() + r.disp.InFlight()
		if best == nil || load < bestLoad {
			best, bestLoad = r, load
		}
	}
	if best != nil {
		return best, nil
	}
	n := s.bestNode(m)
	if n == nil {
		return nil, ErrNoLiveNode
	}
	return s.place(m, n, false)
}

// bestNode is PickNode over the cluster's nodes for m's artifacts; nil when
// no node is alive.
func (s *Serving) bestNode(m *moduleState) *nodeState {
	i := PickNode(s.K.Nodes, m.artifacts)
	if i < 0 {
		return nil
	}
	return s.nodes[i]
}

// place creates m's replica on n — compiled on the node's engine, built by
// NewReplica — and registers its dispatcher as a shard of the node's router.
func (s *Serving) place(m *moduleState, n *nodeState, replaced bool) (*replica, error) {
	cm, err := n.eng.Compile(m.bin)
	if err != nil {
		return nil, err
	}
	s.attSeq++
	rep, err := NewReplica(s.eng, n.eng, cm, n.w, fmt.Sprintf("%s-%d", m.name, s.attSeq),
		serve.Config{Size: s.cfg.PoolSize}, s.cfg.Dispatcher, s.cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	arts := rep.pool.SharedArtifacts()
	m.artifacts = arts[:]
	if err := n.router.Register(m.name, m.name, rep.disp); err != nil {
		return nil, err
	}
	r := &replica{Replica: rep, m: m, n: n}
	m.live = append(m.live, r)
	m.all = append(m.all, r)
	s.scale.Placed++
	if replaced {
		s.scale.RePlaced++
	}
	return r, nil
}

// replicasOn lists live replicas hosted by n.
func (s *Serving) replicasOn(n *nodeState) []*replica {
	var out []*replica
	for _, name := range s.order {
		if r := s.modules[name].on(n); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// FailNode kills node idx fail-stop: the k8s node goes down, the node's
// replicas Retire (queued and in-flight requests finish, then the attachment
// detaches and the node's memory charge disappears), and every module whose
// last replica died is immediately re-placed on a surviving node so traffic
// re-routes without waiting for the next request.
func (s *Serving) FailNode(idx int) error {
	if idx < 0 || idx >= len(s.nodes) {
		return fmt.Errorf("cluster: FailNode: no node %d", idx)
	}
	n := s.nodes[idx]
	if !n.w.Alive() {
		return nil
	}
	if err := s.K.FailNode(n.w.Name); err != nil {
		return err
	}
	var lost []*moduleState
	for _, name := range s.order {
		m := s.modules[name]
		r := m.on(n)
		if r == nil {
			continue
		}
		for i, lr := range m.live {
			if lr == r {
				m.live = append(m.live[:i], m.live[i+1:]...)
				break
			}
		}
		r.Retire()
		if len(m.live) == 0 {
			lost = append(lost, m)
		}
	}
	for _, m := range lost {
		tgt := s.bestNode(m)
		if tgt == nil {
			return ErrNoLiveNode
		}
		if _, err := s.place(m, tgt, true); err != nil {
			return err
		}
	}
	return nil
}

// MemoryPressure fires a memory-pressure episode on node idx, draining every
// attached pool's idle instances, and returns the eviction count.
func (s *Serving) MemoryPressure(idx int) int {
	if idx < 0 || idx >= len(s.nodes) {
		return 0
	}
	return s.nodes[idx].w.MemoryPressure()
}

// NodeCount is the configured node count, dead nodes included.
func (s *Serving) NodeCount() int { return len(s.nodes) }

// NodeAlive reports node idx's liveness.
func (s *Serving) NodeAlive(idx int) bool {
	return idx >= 0 && idx < len(s.nodes) && s.nodes[idx].w.Alive()
}

// RoutedByNode returns per-node routed-request counts, in node order.
func (s *Serving) RoutedByNode() []int64 {
	out := make([]int64, len(s.nodes))
	for _, name := range s.order {
		for _, r := range s.modules[name].all {
			out[r.n.idx] += r.routed
		}
	}
	return out
}

// ReplicaNodes returns the node names hosting live replicas of module, in
// node order (empty when the module is unknown or unplaced).
func (s *Serving) ReplicaNodes(module string) []string {
	m, ok := s.modules[module]
	if !ok {
		return nil
	}
	var out []string
	for _, n := range s.nodes {
		if m.on(n) != nil {
			out = append(out, n.w.Name)
		}
	}
	return out
}

// Arm starts the autoscaler tick chain until the given horizon of simulated
// time. Call before Run / the load generator; without it, or with
// AutoscaleInterval 0, pools stay at Config.PoolSize.
func (s *Serving) Arm(until time.Duration) {
	every := s.cfg.AutoscaleInterval
	if every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		s.tick()
		if time.Duration(s.eng.Now())+every <= until {
			s.eng.After(every, tick)
		}
	}
	s.eng.After(every, tick)
}

// tick is one autoscaler evaluation: per live replica, grow the pool on
// queue depth (skipping nodes the metrics-server reports memory-starved),
// halve it after shrinkAfter consecutive idle ticks.
func (s *Serving) tick() {
	free := s.K.Metrics.NodeFree()
	for _, name := range s.order {
		for _, r := range s.modules[name].live {
			q := r.disp.QueueLen()
			target := r.pool.TargetSize()
			switch {
			case q >= queueHigh:
				r.idleTicks = 0
				if free[r.n.idx].AvailableBytes < minFreeBytes {
					continue // the node can't carry more warm instances
				}
				next := min(max(target*2, 1), maxPoolSize)
				if next > target {
					if _, err := r.pool.Resize(next); err == nil {
						s.scale.Ups++
					}
				}
			case q == 0 && r.disp.InFlight() == 0:
				r.idleTicks++
				if r.idleTicks >= shrinkAfter && target > 0 {
					if _, err := r.pool.Resize(target / 2); err == nil {
						s.scale.Downs++
					}
					r.idleTicks = 0
				}
			default:
				r.idleTicks = 0
			}
		}
	}
}

// ScaleStats snapshots the control-loop counters.
func (s *Serving) ScaleStats() ScaleStats { return s.scale }

// ColdStarts sums dry-pool fallback instantiations over every replica ever
// placed (retired ones included): the cluster-wide cold-start bill.
func (s *Serving) ColdStarts() int64 {
	var total int64
	for _, name := range s.order {
		for _, r := range s.modules[name].all {
			total += r.pool.Stats().ColdStarts
		}
	}
	return total
}

// SharedArtifactBytes sums the wasm-* shared artifacts resident on live
// nodes and how many copies exist cluster-wide: the number locality
// placement minimizes (spread pays one copy of every artifact per node).
func (s *Serving) SharedArtifactBytes() (bytes int64, copies int) {
	for _, n := range s.nodes {
		if !n.w.Alive() {
			continue
		}
		for _, lib := range n.w.OS.SharedLibs() {
			if strings.HasPrefix(lib.Name, "wasm-") {
				bytes += lib.Bytes
				copies++
			}
		}
	}
	return bytes, copies
}

// Quiesced reports whether every node's router holds no work.
func (s *Serving) Quiesced() bool {
	for _, n := range s.nodes {
		if !n.router.Quiesced() {
			return false
		}
	}
	return true
}

// Stats aggregates one ShardStats per module over every replica it ever had
// (live and retired), so the conservation identity spans failover.
// Implements serve.MultiTarget.
func (s *Serving) Stats() serve.RouterStats {
	var out serve.RouterStats
	for _, name := range s.order {
		m := s.modules[name]
		var st serve.DispatcherStats
		q, inf := 0, 0
		for _, r := range m.all {
			st.Add(r.disp.Stats())
			q += r.disp.QueueLen()
			inf += r.disp.InFlight()
		}
		out.Shards = append(out.Shards, serve.ShardStats{
			Key: name, Module: name, Stats: st, QueueLen: q, InFlight: inf,
		})
		out.Aggregate.Add(st)
	}
	for _, n := range s.nodes {
		rs := n.router.Stats()
		out.Batches += rs.Batches
		out.BatchedRequests += rs.BatchedRequests
		if rs.MaxBatch > out.MaxBatch {
			out.MaxBatch = rs.MaxBatch
		}
	}
	return out
}
