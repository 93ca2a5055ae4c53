package k8s

import (
	"fmt"
	"time"

	"wasmcontainers/internal/containerd"
	"wasmcontainers/internal/cri"
	"wasmcontainers/internal/des"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/simos"
)

// SchedulerConfig models scheduling latency.
type SchedulerConfig struct {
	// BindLatency is the time from pod admission to node binding.
	BindLatency time.Duration
}

// DefaultSchedulerConfig matches a lightly-loaded kube-scheduler.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{BindLatency: 10 * time.Millisecond}
}

// Scheduler binds pending pods to nodes. Placement is decided at bind time
// (after BindLatency) against live node state: dead or full nodes are
// filtered out, artifact-hinted pods prefer nodes already holding their
// shared images, and the rest spread round-robin.
type Scheduler struct {
	cfg   SchedulerConfig
	api   *APIServer
	eng   *des.Engine
	nodes []*WorkerNode
	next  int
}

// NewScheduler wires the scheduler to the API server.
func NewScheduler(cfg SchedulerConfig, api *APIServer, eng *des.Engine, nodes []*WorkerNode) *Scheduler {
	s := &Scheduler{cfg: cfg, api: api, eng: eng, nodes: nodes}
	api.WatchPods(s.handle)
	return s
}

func (s *Scheduler) handle(p *Pod) {
	if p.Status.Phase != PodPending {
		return
	}
	p.Status.Phase = PodScheduled // claim immediately; bind after latency
	s.eng.After(s.cfg.BindLatency, func() { s.bind(p) })
}

// bind picks a node at bind time, not admission time: BindLatency later the
// world has moved — nodes fill toward MaxPods or die — so the candidate set
// is re-evaluated here instead of trusting a pick made when the pod was
// admitted. A pod whose node fails while it waits in the bind queue simply
// lands elsewhere.
func (s *Scheduler) bind(p *Pod) {
	if p.Status.Phase != PodScheduled {
		return // failed or deleted while waiting to bind
	}
	node := s.pick(p)
	if node == nil {
		p.Status.Phase = PodFailed
		p.Status.Message = "scheduler: no viable node (all failed or at max pods)"
		s.api.Record("PodFailed", p.key, p.Status.Message)
		s.api.UpdatePod(p)
		return
	}
	p.Spec.NodeName = node.Name
	p.Status.ScheduledAt = s.eng.Now()
	s.api.Record("PodScheduled", p.key, node.boundMsg)
	node.Kubelet.HandlePod(p)
}

// pick filters the cluster down to viable nodes (alive and below MaxPods)
// and chooses among them. Pods carrying artifact hints are scored by how
// many of their shared images each node already holds resident — cache
// locality beats spreading — with free pod capacity as the tiebreak.
// Hint-less pods keep the round-robin spread.
func (s *Scheduler) pick(p *Pod) *WorkerNode {
	viable := make([]*WorkerNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		if n.Alive() && n.Kubelet.PodCount() < n.Kubelet.MaxPods() {
			viable = append(viable, n)
		}
	}
	if len(viable) == 0 {
		return nil
	}
	if len(p.Spec.ArtifactHints) > 0 {
		var best *WorkerNode
		bestScore, bestCap := -1, -1
		for _, n := range viable {
			score := 0
			for _, h := range p.Spec.ArtifactHints {
				if n.OS.HasSharedLib(h) {
					score++
				}
			}
			capacity := n.Kubelet.MaxPods() - n.Kubelet.PodCount()
			if score > bestScore || (score == bestScore && capacity > bestCap) {
				best, bestScore, bestCap = n, score, capacity
			}
		}
		return best
	}
	// The cursor walks the full node list so the spread stays stable as
	// nodes fail: skip non-viable entries rather than re-indexing.
	for range s.nodes {
		n := s.nodes[s.next%len(s.nodes)]
		s.next++
		for _, v := range viable {
			if v == n {
				return n
			}
		}
	}
	return viable[0]
}

// ClusterConfig assembles a cluster.
type ClusterConfig struct {
	NodeConfig      simos.NodeConfig
	NumNodes        int
	KubeletConfig   KubeletConfig
	SchedulerConfig SchedulerConfig
}

// DefaultClusterConfig is the paper's testbed: one 20-core/256 GB worker.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		NodeConfig:      simos.DefaultNodeConfig(),
		NumNodes:        1,
		KubeletConfig:   DefaultKubeletConfig(),
		SchedulerConfig: DefaultSchedulerConfig(),
	}
}

// Cluster is a running simulated Kubernetes cluster.
type Cluster struct {
	Engine    *des.Engine
	API       *APIServer
	Scheduler *Scheduler
	Nodes     []*WorkerNode
	Metrics   *MetricsServer
	podSeq    int
}

// NewCluster builds and wires a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	eng := des.NewEngine()
	api := NewAPIServer(func() int64 { return int64(eng.Now()) })
	for _, rc := range DefaultRuntimeClasses() {
		api.RegisterRuntimeClass(rc)
	}
	images, err := containerd.NewImageStore()
	if err != nil {
		return nil, err
	}
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1
	}
	var nodes []*WorkerNode
	for i := 0; i < cfg.NumNodes; i++ {
		nodeCfg := cfg.NodeConfig
		nodeCfg.Name = fmt.Sprintf("worker-%d", i)
		osNode := simos.NewNode(nodeCfg)
		client, err := containerd.NewClient(osNode, images)
		if err != nil {
			return nil, err
		}
		criSvc := cri.NewService(client)
		kubelet, err := NewKubelet(cfg.KubeletConfig, api, eng, osNode, criSvc)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &WorkerNode{
			Name: nodeCfg.Name, OS: osNode, Runtime: client, CRI: criSvc, Kubelet: kubelet,
			boundMsg: "bound to " + nodeCfg.Name,
		})
	}
	c := &Cluster{
		Engine:  eng,
		API:     api,
		Nodes:   nodes,
		Metrics: NewMetricsServer(nodes),
	}
	c.Scheduler = NewScheduler(cfg.SchedulerConfig, api, eng, nodes)
	return c, nil
}

// DeployOptions shape a batch pod deployment.
type DeployOptions struct {
	NamePrefix       string
	RuntimeClassName string
	Image            string
	Replicas         int
	Args             []string
	Env              []string
	// ArtifactHints steer placement toward nodes already holding these
	// shared artifacts (see PodSpec.ArtifactHints).
	ArtifactHints []string
}

// Deploy creates Replicas single-container pods (the paper's unit: one
// container per pod) and returns them.
func (c *Cluster) Deploy(opts DeployOptions) ([]*Pod, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.NamePrefix == "" {
		opts.NamePrefix = "bench"
	}
	pods := make([]*Pod, 0, opts.Replicas)
	// One container template for every replica; nothing writes to it.
	containers := []ContainerSpec{{Name: "app", Image: opts.Image, Args: opts.Args, Env: opts.Env}}
	for i := 0; i < opts.Replicas; i++ {
		c.podSeq++
		p := &Pod{
			Name:      fmt.Sprintf("%s-%d", opts.NamePrefix, c.podSeq),
			Namespace: "default",
			UID:       fmt.Sprintf("uid-%06d", c.podSeq),
			Spec: PodSpec{
				RuntimeClassName: opts.RuntimeClassName,
				ArtifactHints:    opts.ArtifactHints,
				Containers:       containers,
			},
			Status: PodStatus{CreatedAt: c.Engine.Now()},
		}
		if err := c.API.CreatePod(p); err != nil {
			return nil, err
		}
		pods = append(pods, p)
	}
	return pods, nil
}

// SetObserver wires telemetry into every node's kubelet (pod gauges,
// started/failed counters, node-memory gauges). Pass nil to disable (the
// default).
func (c *Cluster) SetObserver(t *obs.Telemetry) {
	for _, n := range c.Nodes {
		n.Kubelet.SetObserver(t)
	}
}

// Node returns the named worker node, or nil.
func (c *Cluster) Node(name string) *WorkerNode { return c.nodeByName(name) }

// FailNode marks a node dead: the scheduler stops binding to it, its kubelet
// refuses new pods, and every pod already bound there flips to Failed with
// the node named in the reason. Idempotent; unknown names are an error.
func (c *Cluster) FailNode(name string) error {
	node := c.nodeByName(name)
	if node == nil {
		return fmt.Errorf("k8s: FailNode: unknown node %q", name)
	}
	if !node.Alive() {
		return nil
	}
	node.Fail()
	c.API.Record("NodeFailed", name, "node marked down")
	for _, p := range c.API.Pods() {
		if p.Spec.NodeName != name {
			continue
		}
		if p.Status.Phase == PodScheduled || p.Status.Phase == PodRunning {
			p.Status.Phase = PodFailed
			p.Status.Message = "node " + name + " failed"
			c.API.Record("PodFailed", p.key, p.Status.Message)
			c.API.UpdatePod(p)
		}
	}
	return nil
}

// Run drives the simulation until quiescent and returns the final time.
func (c *Cluster) Run() des.Time { return c.Engine.Run() }

// RunningPods counts pods in phase Running.
func (c *Cluster) RunningPods() int {
	n := 0
	for _, p := range c.API.Pods() {
		if p.Status.Phase == PodRunning {
			n++
		}
	}
	return n
}

// LastStartTime returns the time the last pod's workload began executing:
// the paper's startup-latency endpoint ("until our sample application starts
// executing in the last deployed container").
func (c *Cluster) LastStartTime(pods []*Pod) (des.Time, error) {
	var last des.Time
	for _, p := range pods {
		if p.Status.Phase != PodRunning {
			return 0, fmt.Errorf("k8s: pod %s/%s is %s (%s)", p.Namespace, p.Name, p.Status.Phase, p.Status.Message)
		}
		for _, cs := range p.Status.Containers {
			if cs.StartedAt > last {
				last = cs.StartedAt
			}
		}
	}
	return last, nil
}

// TeardownPods stops and removes the given pods, releasing node resources.
func (c *Cluster) TeardownPods(pods []*Pod) error {
	for _, p := range pods {
		node := c.nodeByName(p.Spec.NodeName)
		if node == nil {
			continue
		}
		sbxID := "sbx-" + p.UID
		if err := node.CRI.StopPodSandbox(sbxID); err != nil {
			return err
		}
		if err := node.CRI.RemovePodSandbox(sbxID); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) nodeByName(name string) *WorkerNode {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}
