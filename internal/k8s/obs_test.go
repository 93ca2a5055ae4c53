package k8s

import (
	"testing"

	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/simos"
)

// TestClusterTelemetry deploys pods on an observed cluster and checks the
// kubelet-level gauges and counters track what the cluster reports through
// its own accounting.
func TestClusterTelemetry(t *testing.T) {
	c := newTestCluster(t)
	tele := obs.New(obs.Config{})
	tele.Tracer().SetClock(func() int64 { return int64(c.Engine.Now()) })
	c.SetObserver(tele)
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr",
		Image:            "minimal-service:wasm",
		Replicas:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if _, err := c.LastStartTime(pods); err != nil {
		t.Fatal(err)
	}
	reg := tele.Metrics()
	started := reg.Counter(obs.Labeled("kubelet_pods_started_total", "node", "worker-0"))
	if started.Value() != 3 {
		t.Fatalf("kubelet_pods_started_total = %d, want 3", started.Value())
	}
	managed := reg.Gauge(obs.Labeled("kubelet_managed_pods", "node", "worker-0"))
	if managed.Value() != 3 {
		t.Fatalf("kubelet_managed_pods = %d, want 3", managed.Value())
	}
	failed := reg.Counter(obs.Labeled("kubelet_pods_failed_total", "node", "worker-0"))
	if failed.Value() != 0 {
		t.Fatalf("kubelet_pods_failed_total = %d, want 0", failed.Value())
	}
	// The node-memory gauge mirrors the simulated node's beyond-idle usage at
	// the last pod transition, when all three workloads were resident.
	mem := reg.Gauge(obs.Labeled("node_memory_used_bytes", "node", "worker-0"))
	if got, used := mem.Value(), c.Nodes[0].OS.UsedBeyondIdle(); got != used {
		t.Fatalf("node_memory_used_bytes = %d, node reports %d", got, used)
	}
	if mem.Value() <= 0 {
		t.Fatal("node memory gauge never updated")
	}
}

// TestWarmPoolAttachmentTelemetry checks the warmpool_charged_bytes gauge
// follows Sync through growth, shrink, and detach.
func TestWarmPoolAttachmentTelemetry(t *testing.T) {
	c := newTestCluster(t)
	tele := obs.New(obs.Config{})
	att, err := c.Nodes[0].AttachWarmPool("gw")
	if err != nil {
		t.Fatal(err)
	}
	att.SetObserver(tele)
	charged := func() int64 {
		v, ok := scraped(tele)[obs.Labeled("warmpool_charged_bytes", "pool", "gw")]
		if !ok {
			t.Fatal("warmpool_charged_bytes{pool=\"gw\"} not scraped")
		}
		return v
	}
	att.Sync(3 * simos.MiB)
	if got := charged(); got != 3*simos.MiB {
		t.Fatalf("gauge = %d after sync, want %d", got, 3*simos.MiB)
	}
	att.Sync(1 * simos.MiB)
	if got := charged(); got != 1*simos.MiB {
		t.Fatalf("gauge = %d after shrink, want %d", got, 1*simos.MiB)
	}
	att.Detach()
	if got := charged(); got != 0 {
		t.Fatalf("gauge = %d after detach, want 0", got)
	}
}

// scraped is every counter and gauge of one snapshot of t, by name.
func scraped(t *obs.Telemetry) map[string]int64 {
	out := map[string]int64{}
	snap := t.Snapshot()
	for _, v := range append(snap.Counters, snap.Gauges...) {
		out[v.Name] = v.Value
	}
	return out
}

// TestKubeletFailureCounter drives pods into a kubelet-level failure (runC
// rejecting a wasm image at container start) and checks the failure counter
// catches them. Capacity overflow no longer reaches the kubelet: the
// scheduler rejects those pods at bind time, and that must NOT count as a
// kubelet failure.
func TestKubeletFailureCounter(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.KubeletConfig.MaxPods = 4
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tele := obs.New(obs.Config{})
	c.SetObserver(tele)
	if _, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr",
		Image:            "minimal-service:wasm",
		Replicas:         2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(DeployOptions{
		RuntimeClassName: "runc",
		Image:            "minimal-service:wasm", // runC cannot run wasm: CRI fails the pod
		Replicas:         2,
	}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	// Overflow wave: the node is at MaxPods (2 running + 2 failed counted on
	// admission... the two runc pods were accepted then failed), so these are
	// turned away by the scheduler, not the kubelet.
	if _, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr",
		Image:            "minimal-service:wasm",
		Replicas:         2,
	}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	failed := tele.Metrics().Counter(obs.Labeled("kubelet_pods_failed_total", "node", "worker-0"))
	if failed.Value() != 2 {
		t.Fatalf("kubelet_pods_failed_total = %d, want 2 (CRI failures only)", failed.Value())
	}
	started := tele.Metrics().Counter(obs.Labeled("kubelet_pods_started_total", "node", "worker-0"))
	if started.Value() != 2 {
		t.Fatalf("kubelet_pods_started_total = %d, want 2", started.Value())
	}
}
