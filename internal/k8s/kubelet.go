package k8s

import (
	"fmt"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/containerd"
	"wasmcontainers/internal/cri"
	"wasmcontainers/internal/des"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/simos"
)

// KubeletConfig holds the knobs the paper's Section III-C changes (raising
// max pods per node to 500 for high-density experiments).
type KubeletConfig struct {
	MaxPods int
	// SyncDelay models the kubelet's reaction latency to a new pod binding.
	SyncDelay time.Duration
	// GrowthPerPod is kubelet heap growth per managed pod (system slice).
	GrowthPerPod int64
}

// DefaultKubeletConfig matches the paper's modified cluster configuration.
func DefaultKubeletConfig() KubeletConfig {
	return KubeletConfig{
		MaxPods:      500,
		SyncDelay:    15 * time.Millisecond,
		GrowthPerPod: 410 * 1024,
	}
}

// WorkerNode bundles everything running on one machine.
type WorkerNode struct {
	Name    string
	OS      *simos.Node
	Runtime *containerd.Client
	CRI     cri.RuntimeService
	Kubelet *Kubelet

	// attachments are the warm pools charged to this node, drained in
	// attachment order when the node comes under memory pressure.
	attachments []*WarmPoolAttachment

	// dead is atomic because the gateway flips it from the bridge goroutine
	// while HTTP control-surface handlers read it concurrently.
	dead atomic.Bool
}

// Alive reports whether the node is up. New clusters start with every node
// alive.
func (n *WorkerNode) Alive() bool { return !n.dead.Load() }

// Fail marks the node down: its kubelet refuses and abandons pod work, and
// the scheduler stops considering it. There is no recovery path — the
// simulated failure model is fail-stop.
func (n *WorkerNode) Fail() {
	n.dead.Store(true)
	n.Kubelet.setDown()
}

// Kubelet drives pods assigned to its node through the CRI, pacing the work
// on the node's simulated cores.
type Kubelet struct {
	cfg      KubeletConfig
	node     *simos.Node
	cri      cri.RuntimeService
	api      *APIServer
	eng      *des.Engine
	cpu      *des.CPUPool
	taskLock *des.Resource
	proc     *simos.Process
	podCount int
	down     atomic.Bool

	// Telemetry handles, nil when observation is disabled (nil handles no-op
	// without allocating).
	obsPods       *obs.Gauge
	obsStarted    *obs.Counter
	obsFailed     *obs.Counter
	obsNodeMemory *obs.Gauge
}

// SetObserver wires node-scoped telemetry into the kubelet: a managed-pods
// gauge, started/failed counters, and a node_memory_used_bytes{node=...}
// gauge refreshed from the simulated node's beyond-idle memory at every pod
// transition. Pass nil to disable (the default).
func (k *Kubelet) SetObserver(t *obs.Telemetry) {
	node := k.node.Config().Name
	k.obsPods = t.Gauge(obs.Labeled("kubelet_managed_pods", "node", node))
	k.obsStarted = t.Counter(obs.Labeled("kubelet_pods_started_total", "node", node))
	k.obsFailed = t.Counter(obs.Labeled("kubelet_pods_failed_total", "node", node))
	k.obsNodeMemory = t.Gauge(obs.Labeled("node_memory_used_bytes", "node", node))
	k.obsPods.Set(int64(k.podCount))
	k.obsNodeMemory.Set(k.node.UsedBeyondIdle())
}

// NewKubelet wires a kubelet to its node.
func NewKubelet(cfg KubeletConfig, api *APIServer, eng *des.Engine, node *simos.Node, criSvc cri.RuntimeService) (*Kubelet, error) {
	proc, err := node.Spawn("kubelet", "/system.slice/kubelet")
	if err != nil {
		return nil, err
	}
	return &Kubelet{
		cfg:      cfg,
		node:     node,
		cri:      criSvc,
		api:      api,
		eng:      eng,
		cpu:      des.NewCPUPool(eng, node.Config().Cores),
		taskLock: des.NewResource(eng),
		proc:     proc,
	}, nil
}

// PodCount is the number of pods the kubelet has accepted (viability input
// for bind-time scheduling).
func (k *Kubelet) PodCount() int { return k.podCount }

// MaxPods is the node's pod capacity.
func (k *Kubelet) MaxPods() int { return k.cfg.MaxPods }

func (k *Kubelet) setDown() { k.down.Store(true) }

// CPUPool exposes the node's core pool (used by benchmarks for utilization).
func (k *Kubelet) CPUPool() *des.CPUPool { return k.cpu }

// HandlePod reacts to a pod bound to this node: it schedules the full CRI
// start sequence on the discrete-event engine.
func (k *Kubelet) HandlePod(p *Pod) {
	if p.Status.Phase != PodScheduled {
		return
	}
	if k.down.Load() {
		k.failPod(p, "kubelet: node "+k.node.Config().Name+" is down")
		return
	}
	if k.podCount >= k.cfg.MaxPods {
		p.Status.Phase = PodFailed
		p.Status.Message = fmt.Sprintf("kubelet: max pods (%d) exceeded", k.cfg.MaxPods)
		k.obsFailed.Inc()
		k.api.Record("PodFailed", p.Namespace+"/"+p.Name, p.Status.Message)
		return
	}
	k.podCount++
	k.proc.MapPrivate(k.cfg.GrowthPerPod)
	k.obsPods.Set(int64(k.podCount))
	k.obsNodeMemory.Set(k.node.UsedBeyondIdle())
	k.eng.After(k.cfg.SyncDelay, func() { k.syncPod(p) })
}

// syncPod runs sandbox + container creation, then paces each container's
// start through the task lock and the CPU pool.
func (k *Kubelet) syncPod(p *Pod) {
	// The pod may have been failed (node death) between HandlePod and the
	// sync firing; a dead kubelet also abandons queued syncs.
	if p.Status.Phase != PodScheduled || k.down.Load() {
		return
	}
	rcName := p.Spec.RuntimeClassName
	handler := containerd.HandlerRunc
	if rcName != "" {
		rc, ok := k.api.RuntimeClass(rcName)
		if !ok {
			k.failPod(p, fmt.Sprintf("unknown RuntimeClass %q", rcName))
			return
		}
		handler = rc.Handler
	}
	sbxID, err := k.cri.RunPodSandbox(cri.PodSandboxConfig{
		Name: p.Name, Namespace: p.Namespace, UID: p.UID,
		CgroupParent:   p.CgroupParent(),
		RuntimeHandler: handler,
	})
	if err != nil {
		k.failPod(p, err.Error())
		return
	}
	remaining := len(p.Spec.Containers)
	p.Status.Containers = make([]ContainerStatus, len(p.Spec.Containers))
	for i, cs := range p.Spec.Containers {
		i, cs := i, cs
		ctrID, err := k.cri.CreateContainer(sbxID, cri.ContainerConfig{
			Name: cs.Name, Image: cs.Image, Args: cs.Args, Env: cs.Env,
		})
		if err != nil {
			k.failPod(p, err.Error())
			return
		}
		// The real start: containerd performs the bookkeeping and returns
		// the simulated cost, which we then pace through the shared
		// task-service lock and the node's cores.
		report, err := k.cri.StartContainer(ctrID)
		if err != nil {
			k.failPod(p, err.Error())
			return
		}
		k.eng.After(report.Cost.FixedDelay, func() {
			k.taskLock.Acquire(report.Cost.TaskLockHold, func() {
				k.cpu.Submit(report.Cost.CPUWork, func() {
					if p.Status.Phase != PodScheduled {
						return // failed mid-start (node death)
					}
					p.Status.Containers[i] = ContainerStatus{
						Name:      cs.Name,
						Ready:     true,
						StartedAt: k.eng.Now(),
						ExitCode:  report.ExitCode,
						Stdout:    report.Stdout,
						Handler:   report.Handler,
					}
					remaining--
					if remaining == 0 {
						p.Status.Phase = PodRunning
						p.Status.RunningAt = k.eng.Now()
						k.obsStarted.Inc()
						k.obsNodeMemory.Set(k.node.UsedBeyondIdle())
						k.api.Record("PodRunning", p.Namespace+"/"+p.Name, report.Handler)
						k.api.UpdatePod(p)
					}
				})
			})
		})
	}
}

func (k *Kubelet) failPod(p *Pod, msg string) {
	p.Status.Phase = PodFailed
	p.Status.Message = msg
	k.obsFailed.Inc()
	k.api.Record("PodFailed", p.Namespace+"/"+p.Name, msg)
	k.api.UpdatePod(p)
}
