// Package k8s is a miniature Kubernetes: an in-memory API server with
// watch-style notification, a scheduler, a kubelet per worker node driving
// the CRI under the discrete-event simulator, RuntimeClass dispatch, and a
// metrics-server that reads pod memory from cgroups. It reproduces the
// control path of the paper's Figure 1 end to end.
package k8s

import (
	"fmt"

	"wasmcontainers/internal/containerd"
	"wasmcontainers/internal/des"
)

// PodPhase is the pod lifecycle phase.
type PodPhase string

// Pod phases.
const (
	PodPending   PodPhase = "Pending"
	PodScheduled PodPhase = "Scheduled"
	PodRunning   PodPhase = "Running"
	PodFailed    PodPhase = "Failed"
)

// ContainerSpec is one container in a pod.
type ContainerSpec struct {
	Name  string
	Image string
	Args  []string
	Env   []string
}

// PodSpec is the desired state of a pod.
type PodSpec struct {
	RuntimeClassName string
	Containers       []ContainerSpec
	NodeName         string // set by the scheduler
	// ArtifactHints names shared artifacts (wasm-code:/wasm-data: images) the
	// pod's workload will map. The scheduler prefers nodes that already hold
	// them resident, so warm artifact caches beat blind spreading.
	ArtifactHints []string
}

// ContainerStatus is per-container observed state.
type ContainerStatus struct {
	Name string
	// Ready is true once the container's workload began executing.
	Ready bool
	// StartedAt is the simulated time the workload began executing.
	StartedAt des.Time
	ExitCode  uint32
	// Stdout captured from the workload's startup.
	Stdout string
	// Handler describes the execution path actually used.
	Handler string
}

// PodStatus is the observed state of a pod.
type PodStatus struct {
	Phase PodPhase
	// CreatedAt/ScheduledAt/RunningAt are simulated timestamps.
	CreatedAt   des.Time
	ScheduledAt des.Time
	RunningAt   des.Time
	Containers  []ContainerStatus
	Message     string
}

// Pod is the API object.
type Pod struct {
	Name      string
	Namespace string
	UID       string
	Spec      PodSpec
	Status    PodStatus
	// key is "namespace/name", set once by APIServer.CreatePod and reused by
	// every event the pod records.
	key string
}

// CgroupParent returns the pod-level cgroup path.
func (p *Pod) CgroupParent() string { return "/kubepods/pod-" + p.UID }

// RuntimeClass maps a class name to a containerd handler, the Kubernetes
// mechanism that selects Wasm runtimes per pod.
type RuntimeClass struct {
	Name    string
	Handler containerd.RuntimeHandler
}

// DefaultRuntimeClasses registers every handler the paper benchmarks.
func DefaultRuntimeClasses() []RuntimeClass {
	return []RuntimeClass{
		{Name: "crun-wamr", Handler: containerd.HandlerCrunWAMR},
		{Name: "crun-wasmtime", Handler: containerd.HandlerCrunWasmtime},
		{Name: "crun-wasmer", Handler: containerd.HandlerCrunWasmer},
		{Name: "crun-wasmedge", Handler: containerd.HandlerCrunWasmEdge},
		{Name: "wasmtime", Handler: containerd.HandlerShimWasmtime},
		{Name: "wasmedge", Handler: containerd.HandlerShimWasmEdge},
		{Name: "wasmer", Handler: containerd.HandlerShimWasmer},
		{Name: "crun", Handler: containerd.HandlerCrun},
		{Name: "runc", Handler: containerd.HandlerRunc},
		{Name: "youki", Handler: containerd.HandlerYouki},
	}
}

// Event records a cluster-level occurrence (for tests and debugging).
type Event struct {
	Time    des.Time
	Kind    string
	Object  string
	Message string
}

func (e Event) String() string {
	return fmt.Sprintf("[%.3fs] %s %s: %s", float64(e.Time)/1e9, e.Kind, e.Object, e.Message)
}
