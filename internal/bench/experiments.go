package bench

import (
	"fmt"
	"sort"

	"wasmcontainers/internal/containerd"
	"wasmcontainers/internal/core"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/metrics"
)

// Experiment regenerates one table or figure from the paper.
type Experiment struct {
	ID          string
	Description string
	Run         func() (*Table, error)
}

// Experiments returns the full registry, keyed in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Description: "Software stack for the evaluation (Table I)", Run: Table1},
		{ID: "table2", Description: "Experiments overview (Table II)", Run: Table2},
		{ID: "fig3", Description: "Memory/ctr, Wasm runtimes in crun, metrics-server (Fig. 3)", Run: Fig3},
		{ID: "fig4", Description: "Memory/ctr, Wasm runtimes in crun, free (Fig. 4)", Run: Fig4},
		{ID: "fig5", Description: "Memory/ctr, runwasi shims, free (Fig. 5)", Run: Fig5},
		{ID: "fig6", Description: "Memory/ctr vs Python containers, metrics-server (Fig. 6)", Run: Fig6},
		{ID: "fig7", Description: "Memory/ctr vs Python containers, free (Fig. 7)", Run: Fig7},
		{ID: "fig8", Description: "Time to start 10 concurrent containers (Fig. 8)", Run: Fig8},
		{ID: "fig9", Description: "Time to start 400 concurrent containers (Fig. 9)", Run: Fig9},
		{ID: "fig10", Description: "Memory/ctr overview, all runtimes, all densities (Fig. 10)", Run: Fig10},
		{ID: "ablation-dynload", Description: "Ablation: dynamic vs static engine linking in crun", Run: AblationDynamicLoading},
		{ID: "ablation-shim", Description: "Ablation: shim-hosted vs crun-embedded engine", Run: AblationShimArchitecture},
		{ID: "ablation-mode", Description: "Ablation: interpreter vs JIT engine mode", Run: AblationEngineMode},
		{ID: "ablation-density", Description: "Ablation: per-container overhead from 10 to 500 pods", Run: AblationDensity},
		{ID: "ablation-multitenant", Description: "Ablation: mixed-tenant node (wasm + python, future work)", Run: AblationMultiTenant},
		{ID: "startup-distribution", Description: "Per-pod start-time distribution at density 100", Run: StartupDistribution},
		{ID: "serve", Description: "Warm-pool gateway: latency vs pool size and arrival rate", Run: Serving},
		{ID: "cow", Description: "Ablation: copy-on-write warm instances, shared baseline + dirty-page reset", Run: AblationCoW},
		{ID: "faults", Description: "Ablation: fault injection x resilience policy (retries, timeout, pressure)", Run: AblationFaults},
		{ID: "tiers", Description: "Ablation: execution tiers (tier0-only vs hotness tier-up vs eager tier-1)", Run: AblationTiers},
		{ID: "cluster", Description: "Ablation: cluster routing, 1-8 nodes x locality vs spread placement, plus node-death failover", Run: AblationCluster},
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 prints the evaluated software stack (the paper's Table I).
func Table1() (*Table, error) {
	return &Table{
		Title:   "Table I: software stack for the evaluation",
		Columns: []string{"software", "version"},
		Rows: [][]string{
			{"Linux", "5.4.0-187-generic (simulated)"},
			{"Kubernetes", "1.27.0 (simulated)"},
			{"containerd", containerd.Version + " (simulated)"},
			{"runC", "1.1.12 (simulated)"},
			{"crun", core.Version + " (simulated, WAMR-patched)"},
			{"WAMR", engine.WAMR.Version},
			{"WasmEdge", engine.WasmEdge.Version},
			{"Wasmer", engine.Wasmer.Version},
			{"Wasmtime", engine.Wasmtime.Version},
		},
	}, nil
}

// Table2 prints the experiment matrix (the paper's Table II).
func Table2() (*Table, error) {
	return &Table{
		Title:   "Table II: experiments overview (10-400 containers, 1 container per pod)",
		Columns: []string{"section", "metric", "container runtime", "language runtime"},
		Rows: [][]string{
			{"IV-B (fig3,fig4)", "Memory", "crun", "WAMR, WasmEdge, Wasmer, Wasmtime"},
			{"IV-C (fig5)", "Memory", "crun, containerd", "WAMR, WasmEdge, Wasmer, Wasmtime"},
			{"IV-D (fig6,fig7)", "Memory", "crun, runC", "WAMR, Python"},
			{"IV-E (fig8,fig9)", "Latency", "crun, runC, containerd", "WAMR, WasmEdge, Wasmer, Wasmtime, Python"},
		},
	}, nil
}

// Fig3 is memory per container for Wasm engines embedded in crun, as the
// Kubernetes metrics-server reports it.
func Fig3() (*Table, error) {
	t, _, err := MemoryFigure("Fig. 3: avg memory/container, Wasm runtimes in crun (metrics-server)", CrunEngineConfigs, false)
	return t, err
}

// Fig4 is the same measured via the simulated `free` command.
func Fig4() (*Table, error) {
	t, _, err := MemoryFigure("Fig. 4: avg memory/container, Wasm runtimes in crun (free)", CrunEngineConfigs, true)
	return t, err
}

// Fig5 compares ours against the runwasi shims (free vantage).
func Fig5() (*Table, error) {
	t, _, err := MemoryFigure("Fig. 5: avg memory/container, runwasi shims (free)", RunwasiConfigs, true)
	return t, err
}

// Fig6 compares ours against Python containers (metrics-server vantage).
func Fig6() (*Table, error) {
	t, _, err := MemoryFigure("Fig. 6: avg memory/container vs Python containers (metrics-server)", PythonConfigs, false)
	return t, err
}

// Fig7 is the same via free.
func Fig7() (*Table, error) {
	t, _, err := MemoryFigure("Fig. 7: avg memory/container vs Python containers (free)", PythonConfigs, true)
	return t, err
}

// Fig8 is startup latency for 10 concurrent containers, all runtimes.
func Fig8() (*Table, error) {
	t, _, err := StartupFigure("Fig. 8: time to start 10 concurrent containers", AllConfigs, 10)
	return t, err
}

// Fig9 is startup latency for 400 concurrent containers.
func Fig9() (*Table, error) {
	t, _, err := StartupFigure("Fig. 9: time to start 400 concurrent containers", AllConfigs, 400)
	return t, err
}

// Fig10 averages memory per container over all densities for every runtime,
// in both vantage points.
func Fig10() (*Table, error) {
	t := &Table{
		Title:   "Fig. 10: avg memory/container over all deployment sizes",
		Columns: []string{"runtime", "metrics-server (MiB/ctr)", "free (MiB/ctr)"},
	}
	type agg struct{ metrics, free float64 }
	for _, cfg := range AllConfigs {
		var a agg
		for _, d := range Densities {
			m, err := MeasureDeployment(cfg, d)
			if err != nil {
				return nil, err
			}
			a.metrics += m.MetricsPerContainerMiB
			a.free += m.FreePerContainerMiB
		}
		n := float64(len(Densities))
		t.Rows = append(t.Rows, []string{
			cfg.Label,
			fmt.Sprintf("%.2f", a.metrics/n),
			fmt.Sprintf("%.2f", a.free/n),
		})
	}
	return t, nil
}

// AblationDynamicLoading contrasts the paper's dynamic-library engine
// loading with a statically-linked build of crun+WAMR at density 100.
func AblationDynamicLoading() (*Table, error) {
	const density = 100
	measure := func(static bool) (float64, error) {
		cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
		if err != nil {
			return 0, err
		}
		// Swap the handler implementation: the cluster's containerd client
		// lazily builds crun; we pre-install a static-linking variant by
		// deploying through a dedicated runtime class is not expressible, so
		// measure directly at the runtime layer instead.
		_ = cluster
		return measureCrunDirect(static, density)
	}
	dyn, err := measure(false)
	if err != nil {
		return nil, err
	}
	static, err := measure(true)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Ablation: dynamic vs static WAMR linking in crun (100 containers)",
		Columns: []string{"linking", "free view (MiB/ctr)"},
		Rows: [][]string{
			{"dynamic (ours)", fmt.Sprintf("%.2f", dyn)},
			{"static", fmt.Sprintf("%.2f", static)},
		},
		Notes: []string{fmt.Sprintf("dynamic loading saves %.2f%% per container", 100*(1-dyn/static))},
	}, nil
}

// AblationShimArchitecture compares the same engine hosted in crun vs its
// runwasi shim, isolating the architecture cost (Wasmtime, density 100).
func AblationShimArchitecture() (*Table, error) {
	embedded, err := MeasureDeployment(RuntimeConfig{
		Label: "crun-wasmtime", RuntimeClass: "crun-wasmtime", Image: WasmImage,
	}, 100)
	if err != nil {
		return nil, err
	}
	shim, err := MeasureDeployment(RuntimeConfig{
		Label: "containerd-shim-wasmtime", RuntimeClass: "wasmtime", Image: WasmImage,
	}, 100)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "Ablation: crun-embedded vs runwasi shim (Wasmtime, 100 containers)",
		Columns: []string{"architecture", "metrics (MiB/ctr)", "free (MiB/ctr)", "startup (s)"},
		Rows: [][]string{
			{"embedded in crun", f2(embedded.MetricsPerContainerMiB), f2(embedded.FreePerContainerMiB), f2(embedded.StartupSeconds)},
			{"runwasi shim", f2(shim.MetricsPerContainerMiB), f2(shim.FreePerContainerMiB), f2(shim.StartupSeconds)},
		},
		Notes: []string{
			"the shim avoids crun's per-container engine heap but serializes on the containerd task service",
		},
	}, nil
}

// AblationEngineMode contrasts interpreter-mode WAMR with JIT-mode Wasmtime
// on per-instruction speed and memory, using the CPU-bound workload.
func AblationEngineMode() (*Table, error) {
	t := &Table{
		Title:   "Ablation: interpreter vs JIT engine mode (cpu-bound workload)",
		Columns: []string{"engine", "mode", "exec ns/instr", "embed footprint (MiB)", "startup CPU (ms)"},
	}
	for _, p := range engine.Profiles() {
		t.Rows = append(t.Rows, []string{
			p.Name, string(p.Mode),
			fmt.Sprintf("%.0f", p.NsPerInstruction),
			fmt.Sprintf("%.2f", float64(p.EmbedPrivateBytes)/(1024*1024)),
			fmt.Sprintf("%d", p.EmbedCPUWork.Milliseconds()),
		})
	}
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i][0] < t.Rows[j][0] })
	t.Notes = append(t.Notes, "interpreter mode trades per-instruction speed for an order of magnitude less code-cache memory")
	return t, nil
}

// AblationDensity sweeps density 10..500 for ours, showing per-container
// stability up to the paper's raised 500-pods-per-node kubelet limit.
func AblationDensity() (*Table, error) {
	t := &Table{
		Title:   "Ablation: crun-wamr per-container overhead vs density (up to 500 pods/node)",
		Columns: []string{"density", "metrics (MiB/ctr)", "free (MiB/ctr)", "startup (s)"},
	}
	for _, d := range []int{10, 50, 100, 200, 400, 500} {
		m, err := MeasureDeployment(OursConfig, d)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d),
			f2(m.MetricsPerContainerMiB), f2(m.FreePerContainerMiB), f2(m.StartupSeconds),
		})
	}
	return t, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// AblationMultiTenant explores the paper's stated future work: multiple
// tenants (namespace-like groups) sharing one node, mixing Wasm and Python
// services. It reports per-tenant cgroup memory and shows tenant isolation
// in the workload view while the node amortizes shared engine libraries.
func AblationMultiTenant() (*Table, error) {
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	tenants := []struct {
		name     string
		class    string
		image    string
		replicas int
	}{
		{"tenant-a (wasm, ours)", "crun-wamr", WasmImage, 40},
		{"tenant-b (wasm, shim)", "wasmtime", WasmImage, 40},
		{"tenant-c (python)", "crun", PythonImage, 40},
	}
	podsByTenant := map[string][]*k8s.Pod{}
	for _, tn := range tenants {
		pods, err := cluster.Deploy(k8s.DeployOptions{
			NamePrefix:       tn.name[:8],
			RuntimeClassName: tn.class,
			Image:            tn.image,
			Replicas:         tn.replicas,
		})
		if err != nil {
			return nil, err
		}
		podsByTenant[tn.name] = pods
	}
	cluster.Run()

	t := &Table{
		Title:   "Ablation: multi-tenant node (3 tenants x 40 containers)",
		Columns: []string{"tenant", "pods running", "cgroup total (MiB)", "MiB/ctr"},
	}
	for _, tn := range tenants {
		var total int64
		running := 0
		for _, p := range podsByTenant[tn.name] {
			if p.Status.Phase == k8s.PodRunning {
				running++
			}
			if pm, ok := cluster.Metrics.PodMetrics(p); ok {
				total += pm.MemoryBytes
			}
		}
		t.Rows = append(t.Rows, []string{
			tn.name,
			fmt.Sprintf("%d/%d", running, tn.replicas),
			fmt.Sprintf("%.2f", mib(total)),
			fmt.Sprintf("%.2f", mib(total)/float64(tn.replicas)),
		})
	}
	free := cluster.Nodes[0].OS.UsedBeyondIdle()
	t.Notes = append(t.Notes,
		fmt.Sprintf("node free-view total: %.2f MiB for 120 mixed containers", mib(free)))
	for _, lib := range cluster.Nodes[0].OS.SharedLibs() {
		t.Notes = append(t.Notes, fmt.Sprintf("shared across tenants: %s (%.2f MiB, resident once)",
			lib.Name, mib(lib.Bytes)))
	}
	return t, nil
}

// StartupDistribution reports the per-pod workload-start distribution at one
// density for ours vs the wasmtime shim: the shim's serialized task-service
// admissions spread starts out almost uniformly, while the crun path's
// CPU-bound starts cluster in waves of 20 (the core count).
func StartupDistribution() (*Table, error) {
	const density = 100
	t := &Table{
		Title:   "Startup distribution: per-pod workload start times (100 containers)",
		Columns: []string{"runtime", "p50 (s)", "p95 (s)", "max (s)", "spread max-min (s)"},
	}
	for _, cfg := range []RuntimeConfig{
		OursConfig,
		{Label: "containerd-shim-wasmtime", RuntimeClass: "wasmtime", Image: WasmImage},
	} {
		cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
		if err != nil {
			return nil, err
		}
		pods, err := cluster.Deploy(k8s.DeployOptions{
			RuntimeClassName: cfg.RuntimeClass, Image: cfg.Image, Replicas: density,
		})
		if err != nil {
			return nil, err
		}
		cluster.Run()
		var starts []float64
		for _, p := range pods {
			if p.Status.Phase != k8s.PodRunning {
				return nil, fmt.Errorf("pod %s not running", p.Name)
			}
			starts = append(starts, float64(p.Status.Containers[0].StartedAt)/1e9)
		}
		s := metrics.Summarize(starts)
		t.Rows = append(t.Rows, []string{
			cfg.Label,
			fmt.Sprintf("%.2f", s.P50),
			fmt.Sprintf("%.2f", s.P95),
			fmt.Sprintf("%.2f", s.Max),
			fmt.Sprintf("%.2f", s.Max-s.Min),
		})
	}
	t.Notes = append(t.Notes, "paper endpoint = max (time the LAST container starts)")
	return t, nil
}
