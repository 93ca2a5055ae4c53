package k8s

import (
	"strconv"
	"strings"
	"testing"

	"wasmcontainers/internal/simos"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(DefaultClusterConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestDeployWasmPodEndToEnd(t *testing.T) {
	c := newTestCluster(t)
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr",
		Image:            "minimal-service:wasm",
		Replicas:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	p := pods[0]
	if p.Status.Phase != PodRunning {
		t.Fatalf("pod phase = %s (%s)", p.Status.Phase, p.Status.Message)
	}
	cs := p.Status.Containers[0]
	if !cs.Ready || cs.ExitCode != 0 {
		t.Fatalf("container status = %+v", cs)
	}
	// The workload really ran: its banner is in the captured stdout.
	if cs.Stdout != "service ready\n" {
		t.Fatalf("stdout = %q", cs.Stdout)
	}
	if !strings.Contains(cs.Handler, "wamr") {
		t.Fatalf("handler = %q, want wamr path", cs.Handler)
	}
	// Startup took simulated seconds, not zero.
	if p.Status.RunningAt <= 0 {
		t.Fatal("no simulated startup time recorded")
	}
}

func TestAllRuntimeClassesStartTheWorkload(t *testing.T) {
	wasmClasses := []string{
		"crun-wamr", "crun-wasmtime", "crun-wasmer", "crun-wasmedge",
		"wasmtime", "wasmedge", "wasmer", "youki",
	}
	for _, rc := range wasmClasses {
		c := newTestCluster(t)
		pods, err := c.Deploy(DeployOptions{
			RuntimeClassName: rc, Image: "minimal-service:wasm", Replicas: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", rc, err)
		}
		c.Run()
		for _, p := range pods {
			if p.Status.Phase != PodRunning {
				t.Fatalf("%s: pod %s phase %s (%s)", rc, p.Name, p.Status.Phase, p.Status.Message)
			}
			if got := p.Status.Containers[0].Stdout; got != "service ready\n" {
				t.Fatalf("%s: stdout %q", rc, got)
			}
		}
	}
	for _, rc := range []string{"crun", "runc"} {
		c := newTestCluster(t)
		pods, err := c.Deploy(DeployOptions{
			RuntimeClassName: rc, Image: "python-minimal-service:3.11", Replicas: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", rc, err)
		}
		c.Run()
		for _, p := range pods {
			if p.Status.Phase != PodRunning {
				t.Fatalf("%s: pod %s phase %s (%s)", rc, p.Name, p.Status.Phase, p.Status.Message)
			}
			if got := p.Status.Containers[0].Stdout; got != "service ready\n" {
				t.Fatalf("%s: stdout %q", rc, got)
			}
		}
	}
}

func TestRunCRejectsWasm(t *testing.T) {
	c := newTestCluster(t)
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "runc", Image: "minimal-service:wasm", Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if pods[0].Status.Phase != PodFailed {
		t.Fatalf("expected PodFailed, got %s", pods[0].Status.Phase)
	}
	if !strings.Contains(pods[0].Status.Message, "wasm containers are not supported") {
		t.Fatalf("message = %q", pods[0].Status.Message)
	}
}

func TestMetricsServerVsFreeVantagePoints(t *testing.T) {
	c := newTestCluster(t)
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	metrics := c.Metrics.AllPodMetrics(pods)
	if len(metrics) != 10 {
		t.Fatalf("scraped %d pods, want 10", len(metrics))
	}
	var totalCgroup int64
	for _, m := range metrics {
		if m.MemoryBytes <= 0 {
			t.Fatalf("pod %s reports zero memory", m.Name)
		}
		totalCgroup += m.MemoryBytes
	}
	// The `free` view must exceed the metrics-server view: it additionally
	// sees shims, daemon growth, and page cache (the paper's Fig 3 vs 4 gap).
	freeView := c.Nodes[0].OS.UsedBeyondIdle()
	if freeView <= totalCgroup {
		t.Fatalf("free view %d <= cgroup view %d", freeView, totalCgroup)
	}
	gap := float64(freeView-totalCgroup) / float64(totalCgroup)
	if gap < 0.05 || gap > 1.0 {
		t.Fatalf("free-vs-metrics gap = %.1f%%, expected 5%%-100%%", gap*100)
	}
}

func TestPerContainerMemoryStableAcrossDensity(t *testing.T) {
	// Paper Section IV-B: per-container overhead does not vary significantly
	// with deployment size.
	perContainer := func(n int) float64 {
		c := newTestCluster(t)
		pods, err := c.Deploy(DeployOptions{
			RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		if c.RunningPods() != n {
			t.Fatalf("only %d/%d pods running", c.RunningPods(), n)
		}
		total := c.Metrics.TotalWorkloadBytes()
		_ = pods
		return float64(total) / float64(n)
	}
	at10 := perContainer(10)
	at100 := perContainer(100)
	ratio := at100 / at10
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("per-container memory drifted with density: %.0f vs %.0f bytes", at10, at100)
	}
}

func TestStartupLatencyScalesWithDensity(t *testing.T) {
	elapsed := func(n int) float64 {
		c := newTestCluster(t)
		pods, err := c.Deploy(DeployOptions{
			RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		last, err := c.LastStartTime(pods)
		if err != nil {
			t.Fatal(err)
		}
		return float64(last) / 1e9
	}
	t10 := elapsed(10)
	t100 := elapsed(100)
	if t10 <= 0 {
		t.Fatal("zero startup latency")
	}
	// 10 containers fit the 20 cores; 100 must queue and take notably longer.
	if t100 < 2*t10 {
		t.Fatalf("latency: 10 ctrs %.2fs, 100 ctrs %.2fs — expected queueing growth", t10, t100)
	}
}

func TestMaxPodsEnforced(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.KubeletConfig.MaxPods = 5
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	running, failed := 0, 0
	for _, p := range pods {
		switch p.Status.Phase {
		case PodRunning:
			running++
		case PodFailed:
			failed++
		}
	}
	if running != 5 || failed != 3 {
		t.Fatalf("running=%d failed=%d, want 5/3", running, failed)
	}
}

func TestTeardownReleasesMemory(t *testing.T) {
	c := newTestCluster(t)
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	before := c.Nodes[0].OS.UsedBeyondIdle()
	if before == 0 {
		t.Fatal("no memory in use after deployment")
	}
	if err := c.TeardownPods(pods); err != nil {
		t.Fatal(err)
	}
	after := c.Nodes[0].OS.UsedBeyondIdle()
	// Image layer cache and kubelet growth legitimately persist; workload
	// memory must be gone.
	if after >= before/2 {
		t.Fatalf("teardown released too little: before=%d after=%d", before, after)
	}
	if c.Metrics.TotalWorkloadBytes() != 0 {
		t.Fatalf("workload cgroups still charged: %d", c.Metrics.TotalWorkloadBytes())
	}
}

func TestDeterministicClusterRuns(t *testing.T) {
	run := func() (int64, int64) {
		c := newTestCluster(t)
		pods, err := c.Deploy(DeployOptions{
			RuntimeClassName: "wasmtime", Image: "minimal-service:wasm", Replicas: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		last, err := c.LastStartTime(pods)
		if err != nil {
			t.Fatal(err)
		}
		return int64(last), c.Nodes[0].OS.UsedBeyondIdle()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", t1, m1, t2, m2)
	}
}

func TestWasmArgsReachModule(t *testing.T) {
	// Deploy echo-args with extra args; the module prints them via WASI.
	c := newTestCluster(t)
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr",
		Image:            "echo-args:wasm",
		Replicas:         1,
		Args:             []string{"--mode", "bench"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	cs := pods[0].Status.Containers[0]
	want := "/app.wasm\n--mode\nbench\n"
	if cs.Stdout != want {
		t.Fatalf("stdout = %q, want %q", cs.Stdout, want)
	}
}

func TestNodeUtilizationDuringStartup(t *testing.T) {
	c := newTestCluster(t)
	_, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := c.Run()
	node := c.Nodes[0]
	util := float64(node.Kubelet.CPUPool().BusyTime) / float64(int64(end)*int64(node.OS.Config().Cores))
	if util < 0.3 || util > 1.0 {
		t.Fatalf("utilization = %.2f, expected busy cores during 100-pod startup", util)
	}
	if c.Nodes[0].OS.Config().RAMBytes != 256*simos.GiB {
		t.Fatal("default node should be the paper's 256GB machine")
	}
}

func TestNodeOOMFailsPods(t *testing.T) {
	// A node too small for the requested fleet: pods fail rather than hang.
	cfg := DefaultClusterConfig()
	cfg.NodeConfig = simos.NodeConfig{
		Name: "tiny", RAMBytes: 2200 * simos.MiB, Cores: 4,
		BaseSystemBytes: 2000 * simos.MiB, BaseCacheBytes: 100 * simos.MiB,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wasmer", Image: "minimal-service:wasm", Replicas: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	running, failed := 0, 0
	for _, p := range pods {
		switch p.Status.Phase {
		case PodRunning:
			running++
		case PodFailed:
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("expected OOM failures on a %dMiB node (running=%d)", 2200, running)
	}
	if running == 0 {
		t.Fatal("expected at least some pods to fit")
	}
	// Failure messages mention memory exhaustion.
	for _, p := range pods {
		if p.Status.Phase == PodFailed && !strings.Contains(p.Status.Message, "out of memory") {
			t.Fatalf("unexpected failure message: %q", p.Status.Message)
		}
	}
}

func TestEventsRecorded(t *testing.T) {
	c := newTestCluster(t)
	_, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	kinds := map[string]int{}
	for _, e := range c.API.Events() {
		kinds[e.Kind]++
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if kinds["PodCreated"] != 2 || kinds["PodScheduled"] != 2 || kinds["PodRunning"] != 2 {
		t.Fatalf("event counts = %v", kinds)
	}
}

// TestEventLogKeepsTheLatest: the API server keeps the last maxEvents
// events, oldest first, however many are recorded.
func TestEventLogKeepsTheLatest(t *testing.T) {
	var now int64
	a := NewAPIServer(func() int64 { return now })
	for now = 0; now < 10000; now++ {
		a.Record("Tick", "obj", strconv.FormatInt(now, 10))
	}
	events := a.Events()
	if len(events) != maxEvents {
		t.Fatalf("kept %d events, want %d", len(events), maxEvents)
	}
	for i, e := range events {
		if want := 10000 - maxEvents + i; int(e.Time) != want || e.Message != strconv.Itoa(want) {
			t.Fatalf("event %d = %+v, want the one recorded at %d", i, e, want)
		}
	}
}

func TestUnknownRuntimeClassRejectedAtAdmission(t *testing.T) {
	c := newTestCluster(t)
	_, err := c.Deploy(DeployOptions{
		RuntimeClassName: "no-such-class", Image: "minimal-service:wasm", Replicas: 1,
	})
	if err == nil {
		t.Fatal("unknown runtime class admitted")
	}
}

func TestDefaultRuntimeClassIsRunc(t *testing.T) {
	// A pod without a RuntimeClass runs under Kubernetes' default (runC).
	c := newTestCluster(t)
	pods, err := c.Deploy(DeployOptions{
		Image: "python-minimal-service:3.11", Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if pods[0].Status.Phase != PodRunning {
		t.Fatalf("pod %s: %s", pods[0].Status.Phase, pods[0].Status.Message)
	}
	if !strings.Contains(pods[0].Status.Containers[0].Handler, "runc") {
		t.Fatalf("handler = %q, want runc default", pods[0].Status.Containers[0].Handler)
	}
}

func TestMultiNodeScheduling(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.NumNodes = 3
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	perNode := map[string]int{}
	for _, p := range pods {
		if p.Status.Phase != PodRunning {
			t.Fatalf("pod %s: %s (%s)", p.Name, p.Status.Phase, p.Status.Message)
		}
		perNode[p.Spec.NodeName]++
	}
	if len(perNode) != 3 {
		t.Fatalf("pods landed on %d nodes, want 3: %v", len(perNode), perNode)
	}
	for node, n := range perNode {
		if n != 3 {
			t.Fatalf("node %s got %d pods, want 3 (round-robin)", node, n)
		}
	}
	// Each node's memory reflects its own pods only.
	for _, wn := range c.Nodes {
		if wn.OS.UsedBeyondIdle() <= 0 {
			t.Fatalf("node %s has no workload memory", wn.Name)
		}
	}
}

// TestDeploySharesOneContainerTemplate: the replicas of one Deploy share one
// container template, and the cluster's events read exactly as they did when
// every pod built its own key and message. A 3-pod deploy fills two nodes of
// two pods each but one slot; a 2-pod deploy of a missing image then fails
// one pod in its kubelet and one at the scheduler; a node failure takes a
// running pod.
func TestDeploySharesOneContainerTemplate(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.NumNodes = 2
	cfg.KubeletConfig.MaxPods = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pods, err := c.Deploy(DeployOptions{
		RuntimeClassName: "crun-wamr", Image: "minimal-service:wasm", Replicas: 3,
		Args: []string{"--flag"}, Env: []string{"MODE=x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pods[1:] {
		if &p.Spec.Containers[0] != &pods[0].Spec.Containers[0] {
			t.Fatalf("pod %s has its own container template", p.Name)
		}
	}
	if _, err := c.Deploy(DeployOptions{RuntimeClassName: "crun-wamr", Image: "ghost:v1", Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if err := c.FailNode("worker-1"); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range c.API.Events() {
		got.WriteString(e.String() + "\n")
	}
	if got.String() != deployEventsGolden {
		t.Fatalf("events:\n%s\nwant:\n%s", got.String(), deployEventsGolden)
	}
}

const deployEventsGolden = `[0.000s] PodCreated default/bench-1: admitted
[0.000s] PodCreated default/bench-2: admitted
[0.000s] PodCreated default/bench-3: admitted
[0.000s] PodCreated default/bench-4: admitted
[0.000s] PodCreated default/bench-5: admitted
[0.010s] PodScheduled default/bench-1: bound to worker-0
[0.010s] PodScheduled default/bench-2: bound to worker-1
[0.010s] PodScheduled default/bench-3: bound to worker-0
[0.010s] PodScheduled default/bench-4: bound to worker-1
[0.010s] PodFailed default/bench-5: scheduler: no viable node (all failed or at max pods)
[0.025s] PodFailed default/bench-4: containerd: image "ghost:v1" not found
[3.268s] PodRunning default/bench-1: crun-wamr/wasm:wamr
[3.268s] PodRunning default/bench-2: crun-wamr/wasm:wamr
[3.270s] PodRunning default/bench-3: crun-wamr/wasm:wamr
[3.270s] NodeFailed worker-1: node marked down
[3.270s] PodFailed default/bench-2: node worker-1 failed
`
