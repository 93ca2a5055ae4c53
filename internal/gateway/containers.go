package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"

	"wasmcontainers/internal/k8s"
)

// The container endpoints are a minimal Docker-Engine-API-shaped control
// surface over the simulated cluster, the way sockerless serves the Docker
// REST API without Docker: create registers a pod with the API server
// (phase Pending — created, not started), start drives the cluster's DES
// engine to quiescence so the pod reaches Running through the full
// scheduler → kubelet → CRI → runtime path, json lists, stats reads the
// pod's cgroup through the metrics-server. The cluster's control-plane
// engine is separate from the serving bridge's: control calls simulate to
// completion synchronously, while the data plane runs on the bridge loop in
// (dilated) real time. The two planes share node memory accounting (warm
// pools charge the same simulated kubelets containers run on), so every
// cluster-touching section executes on the bridge loop via Bridge.Do, with
// clusterMu guarding the gateway's own container table.

// ContainerCreateRequest is the accepted subset of Docker's create body.
type ContainerCreateRequest struct {
	// Image names the container image; empty means the Wasm benchmark image.
	Image string `json:"Image"`
	// Runtime selects the RuntimeClass (crun-wamr, wasmtime, crun, ...);
	// empty means crun-wamr, the paper's architecture.
	Runtime string `json:"Runtime"`
	// Cmd is passed to the workload as args.
	Cmd []string `json:"Cmd"`
	// Env is passed through to the container spec.
	Env []string `json:"Env"`
}

// ContainerCreateResponse mirrors Docker's create response.
type ContainerCreateResponse struct {
	ID       string   `json:"Id"`
	Warnings []string `json:"Warnings"`
}

// ContainerSummary is one row of GET /v1/containers/json.
type ContainerSummary struct {
	ID      string            `json:"Id"`
	Names   []string          `json:"Names"`
	Image   string            `json:"Image"`
	State   string            `json:"State"`
	Status  string            `json:"Status"`
	Created float64           `json:"Created"` // simulated seconds
	Labels  map[string]string `json:"Labels"`
}

// ContainerStats is the one-shot (stream=false) stats body.
type ContainerStats struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	MemoryStats struct {
		Usage int64 `json:"usage"`
	} `json:"memory_stats"`
	Node string `json:"node"`
}

// DefaultContainerImage backs creates that name no image: the minimal Wasm
// service from the pre-populated benchmark image store.
const DefaultContainerImage = "minimal-service:wasm"

// dockerState maps a pod phase to Docker's state vocabulary.
func dockerState(phase k8s.PodPhase) string {
	switch phase {
	case k8s.PodRunning:
		return "running"
	case k8s.PodFailed:
		return "exited"
	default:
		return "created"
	}
}

// handleContainerCreate registers a pod (phase Pending) and returns its id.
// Like docker create, nothing executes until start.
func (s *Server) handleContainerCreate(w http.ResponseWriter, r *http.Request) {
	var req ContainerCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, ErrorMapping{http.StatusBadRequest, "bad_request", 0},
			fmt.Errorf("gateway: decode create body: %w", err))
		return
	}
	if req.Image == "" {
		req.Image = DefaultContainerImage
	}
	if req.Runtime == "" {
		req.Runtime = "crun-wamr"
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "ctr"
	}
	var (
		pod       *k8s.Pod
		deployErr error
	)
	if err := s.bridge.Do(r.Context(), func() {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		var pods []*k8s.Pod
		pods, deployErr = s.cluster.Deploy(k8s.DeployOptions{
			NamePrefix:       name,
			RuntimeClassName: req.Runtime,
			Image:            req.Image,
			Replicas:         1,
			Args:             req.Cmd,
			Env:              req.Env,
		})
		if deployErr != nil {
			return
		}
		pod = pods[0]
		s.containers[pod.UID] = pod
	}); err != nil {
		writeError(w, MapError(err, 0), err)
		return
	}
	if deployErr != nil {
		writeError(w, ErrorMapping{http.StatusBadRequest, "create_failed", 0}, deployErr)
		return
	}
	writeJSON(w, http.StatusCreated, ContainerCreateResponse{ID: pod.UID, Warnings: nil})
}

// handleContainerStart runs the control-plane simulation to quiescence,
// driving the pod through scheduling and the CRI start sequence. 204 on a
// Running pod, 500 with the kubelet's message otherwise.
func (s *Server) handleContainerStart(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		ok    bool
		phase k8s.PodPhase
		msg   string
	)
	if err := s.bridge.Do(r.Context(), func() {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		var pod *k8s.Pod
		pod, ok = s.containers[id]
		if !ok {
			return
		}
		s.cluster.Run()
		phase = pod.Status.Phase
		msg = pod.Status.Message
	}); err != nil {
		writeError(w, MapError(err, 0), err)
		return
	}
	if !ok {
		writeError(w, ErrorMapping{http.StatusNotFound, "no_such_container", 0},
			fmt.Errorf("gateway: no such container %q", id))
		return
	}
	if phase != k8s.PodRunning {
		writeError(w, ErrorMapping{http.StatusInternalServerError, "start_failed", 0},
			fmt.Errorf("gateway: container %s is %s: %s", id, phase, msg))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleContainerList lists containers; like docker ps it shows running
// ones unless ?all=1.
func (s *Server) handleContainerList(w http.ResponseWriter, r *http.Request) {
	all := r.URL.Query().Get("all") != "" && r.URL.Query().Get("all") != "0" &&
		r.URL.Query().Get("all") != "false"
	var out []ContainerSummary
	if err := s.bridge.Do(r.Context(), func() {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		out = make([]ContainerSummary, 0, len(s.containers))
		for _, pod := range s.containers {
			if !all && pod.Status.Phase != k8s.PodRunning {
				continue
			}
			out = append(out, ContainerSummary{
				ID:      pod.UID,
				Names:   []string{"/" + pod.Name},
				Image:   pod.Spec.Containers[0].Image,
				State:   dockerState(pod.Status.Phase),
				Status:  string(pod.Status.Phase),
				Created: float64(pod.Status.CreatedAt) / 1e9,
				Labels: map[string]string{
					"runtime-class": pod.Spec.RuntimeClassName,
					"node":          pod.Spec.NodeName,
				},
			})
		}
	}); err != nil {
		writeError(w, MapError(err, 0), err)
		return
	}
	// Map iteration is randomized; present a stable listing.
	sortContainers(out)
	writeJSON(w, http.StatusOK, out)
}

// sortContainers orders by id (uids are zero-padded sequence numbers).
func sortContainers(cs []ContainerSummary) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ID < cs[j-1].ID; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// handleContainerStats reads the pod's cgroup memory through the
// metrics-server vantage (one-shot, stream=false semantics).
func (s *Server) handleContainerStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		ok    bool
		stats ContainerStats
	)
	if err := s.bridge.Do(r.Context(), func() {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		var pod *k8s.Pod
		pod, ok = s.containers[id]
		if !ok {
			return
		}
		stats.ID = pod.UID
		stats.Name = "/" + pod.Name
		stats.Node = pod.Spec.NodeName
		if pm, found := s.cluster.Metrics.PodMetrics(pod); found {
			stats.MemoryStats.Usage = pm.MemoryBytes
		}
	}); err != nil {
		writeError(w, MapError(err, 0), err)
		return
	}
	if !ok {
		writeError(w, ErrorMapping{http.StatusNotFound, "no_such_container", 0},
			fmt.Errorf("gateway: no such container %q", id))
		return
	}
	writeJSON(w, http.StatusOK, stats)
}
