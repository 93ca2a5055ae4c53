package k8s

import (
	"fmt"
	"sort"

	"wasmcontainers/internal/des"
)

// APIServer is the in-memory object store and notification hub. Handlers are
// invoked synchronously on mutation and are expected to schedule their real
// work on the discrete-event engine, which keeps the whole control plane
// deterministic.
type APIServer struct {
	pods           map[string]*Pod
	runtimeClasses map[string]RuntimeClass
	podHandlers    []func(*Pod)
	events         []Event
	now            func() int64
}

// NewAPIServer creates an empty API server; now supplies simulated time for
// event records.
func NewAPIServer(now func() int64) *APIServer {
	return &APIServer{
		pods:           make(map[string]*Pod),
		runtimeClasses: make(map[string]RuntimeClass),
		now:            now,
	}
}

// RegisterRuntimeClass installs a RuntimeClass object.
func (a *APIServer) RegisterRuntimeClass(rc RuntimeClass) {
	a.runtimeClasses[rc.Name] = rc
}

// RuntimeClass resolves a class name.
func (a *APIServer) RuntimeClass(name string) (RuntimeClass, bool) {
	rc, ok := a.runtimeClasses[name]
	return rc, ok
}

// WatchPods registers a handler called on every pod create/update.
func (a *APIServer) WatchPods(h func(*Pod)) { a.podHandlers = append(a.podHandlers, h) }

// CreatePod admits a pod.
func (a *APIServer) CreatePod(p *Pod) error {
	key := p.Namespace + "/" + p.Name
	if _, ok := a.pods[key]; ok {
		return fmt.Errorf("k8s: pod %s already exists", key)
	}
	if p.UID == "" {
		p.UID = fmt.Sprintf("uid-%05d", len(a.pods)+1)
	}
	if _, ok := a.runtimeClasses[p.Spec.RuntimeClassName]; p.Spec.RuntimeClassName != "" && !ok {
		return fmt.Errorf("k8s: unknown runtime class %q", p.Spec.RuntimeClassName)
	}
	p.Status.Phase = PodPending
	p.key = key
	a.pods[key] = p
	a.Record("PodCreated", key, "admitted")
	a.notify(p)
	return nil
}

// UpdatePod re-notifies watchers after a mutation.
func (a *APIServer) UpdatePod(p *Pod) { a.notify(p) }

func (a *APIServer) notify(p *Pod) {
	for _, h := range a.podHandlers {
		h(p)
	}
}

// Pod fetches a pod by namespace/name.
func (a *APIServer) Pod(namespace, name string) (*Pod, bool) {
	p, ok := a.pods[namespace+"/"+name]
	return p, ok
}

// Pods lists all pods sorted by key.
func (a *APIServer) Pods() []*Pod {
	keys := make([]string, 0, len(a.pods))
	for k := range a.pods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Pod, 0, len(keys))
	for _, k := range keys {
		out = append(out, a.pods[k])
	}
	return out
}

// Record appends a cluster event.
func (a *APIServer) Record(kind, object, msg string) {
	a.events = append(a.events, Event{Time: des.Time(a.now()), Kind: kind, Object: object, Message: msg})
}

// Events returns recorded events.
func (a *APIServer) Events() []Event { return a.events }
