package wasmcontainers_test

// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus the ablations DESIGN.md calls out and microbenchmarks of
// the substrates. Figure benchmarks run the full simulated cluster and
// report the headline numbers via b.ReportMetric, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the evaluation. (Figure benches are heavy: hundreds of
// simulated container starts per iteration.)

import (
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"wasmcontainers/internal/bench"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/pylite"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// runExperiment executes a registered experiment b.N times.
func runExperiment(b *testing.B, id string) *bench.Table {
	b.Helper()
	e, ok := bench.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkTable1Stack regenerates Table I (software stack).
func BenchmarkTable1Stack(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Overview regenerates Table II (experiment matrix).
func BenchmarkTable2Overview(b *testing.B) { runExperiment(b, "table2") }

// reportOursVsBest extracts "ours" and the best competitor from a memory
// figure and reports them as custom metrics.
func reportOursVsBest(b *testing.B, configs []bench.RuntimeConfig, useFree bool) {
	b.Helper()
	var ours, best float64
	for _, cfg := range configs {
		m, err := bench.MeasureDeployment(cfg, 100)
		if err != nil {
			b.Fatal(err)
		}
		v := m.MetricsPerContainerMiB
		if useFree {
			v = m.FreePerContainerMiB
		}
		if cfg.Ours {
			ours = v
		} else if best == 0 || v < best {
			best = v
		}
	}
	b.ReportMetric(ours, "ours-MiB/ctr")
	b.ReportMetric(best, "best-other-MiB/ctr")
	b.ReportMetric(100*(1-ours/best), "reduction-%")
}

// BenchmarkFig3MemoryCrunMetricsServer regenerates Figure 3.
func BenchmarkFig3MemoryCrunMetricsServer(b *testing.B) {
	runExperiment(b, "fig3")
	reportOursVsBest(b, bench.CrunEngineConfigs, false)
}

// BenchmarkFig4MemoryCrunFree regenerates Figure 4.
func BenchmarkFig4MemoryCrunFree(b *testing.B) {
	runExperiment(b, "fig4")
	reportOursVsBest(b, bench.CrunEngineConfigs, true)
}

// BenchmarkFig5MemoryRunwasiFree regenerates Figure 5.
func BenchmarkFig5MemoryRunwasiFree(b *testing.B) {
	runExperiment(b, "fig5")
	reportOursVsBest(b, bench.RunwasiConfigs, true)
}

// BenchmarkFig6MemoryPythonMetricsServer regenerates Figure 6.
func BenchmarkFig6MemoryPythonMetricsServer(b *testing.B) {
	runExperiment(b, "fig6")
	reportOursVsBest(b, bench.PythonConfigs, false)
}

// BenchmarkFig7MemoryPythonFree regenerates Figure 7.
func BenchmarkFig7MemoryPythonFree(b *testing.B) {
	runExperiment(b, "fig7")
	reportOursVsBest(b, bench.PythonConfigs, true)
}

// reportStartup measures time-to-last-start for ours at the given density.
func reportStartup(b *testing.B, density int) {
	m, err := bench.MeasureDeployment(bench.OursConfig, density)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(m.StartupSeconds, "ours-startup-s")
}

// BenchmarkFig8Startup10 regenerates Figure 8.
func BenchmarkFig8Startup10(b *testing.B) {
	runExperiment(b, "fig8")
	reportStartup(b, 10)
}

// BenchmarkFig9Startup400 regenerates Figure 9.
func BenchmarkFig9Startup400(b *testing.B) {
	runExperiment(b, "fig9")
	reportStartup(b, 400)
}

// BenchmarkFig10MemoryOverview regenerates Figure 10.
func BenchmarkFig10MemoryOverview(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkAblationDynamicLoading contrasts dynamic vs static engine linking.
func BenchmarkAblationDynamicLoading(b *testing.B) { runExperiment(b, "ablation-dynload") }

// BenchmarkAblationShimArchitecture contrasts embedded vs shim hosting.
func BenchmarkAblationShimArchitecture(b *testing.B) { runExperiment(b, "ablation-shim") }

// BenchmarkAblationEngineMode contrasts interpreter vs JIT engine modes.
func BenchmarkAblationEngineMode(b *testing.B) { runExperiment(b, "ablation-mode") }

// BenchmarkAblationDensity sweeps density to the 500-pods/node limit.
func BenchmarkAblationDensity(b *testing.B) { runExperiment(b, "ablation-density") }

// --- substrate microbenchmarks ---

// BenchmarkWasmInterpreter measures raw interpreter throughput on the
// cpu-bound workload (primes below 10000).
func BenchmarkWasmInterpreter(b *testing.B) {
	m, err := workloads.Module("cpu-bound")
	if err != nil {
		b.Fatal(err)
	}
	store := exec.NewStore(exec.Config{})
	inst, err := store.Instantiate(m, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		before := store.InstructionCount()
		if _, err := inst.Call("count_primes", exec.I32(10_000)); err != nil {
			b.Fatal(err)
		}
		instrs = store.InstructionCount() - before
	}
	b.ReportMetric(float64(instrs), "wasm-instrs/op")
}

// BenchmarkWasmDecodeValidate measures module load time (the engine
// Compile path every container start exercises).
func BenchmarkWasmDecodeValidate(b *testing.B) {
	bin, err := workloads.Binary("minimal-service")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := wasm.Decode(bin)
		if err != nil {
			b.Fatal(err)
		}
		if err := wasm.Validate(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWasmInstantiate measures store+instance setup per container.
func BenchmarkWasmInstantiate(b *testing.B) {
	m, err := workloads.Module("minimal-service")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := exec.NewStore(exec.Config{})
		wasi.New(wasi.Config{}).Register(store)
		if _, err := store.Instantiate(m, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPyliteInterpreter measures what a Python container's start runs:
// the service app compiled and executed by pylite (the body of the
// benchmark's pylite.run_us probe).
func BenchmarkPyliteInterpreter(b *testing.B) {
	b.ReportAllocs()
	var steps uint64
	for i := 0; i < b.N; i++ {
		vm := pylite.NewVM(io.Discard)
		if _, err := vm.RunSource(workloads.MinimalServicePy); err != nil {
			b.Fatal(err)
		}
		steps = vm.Steps
	}
	b.ReportMetric(float64(steps), "pylite-steps/op")
}

// BenchmarkEngineProfiles measures full engine Compile+Run per profile on
// the minimal service (the per-container start path).
func BenchmarkEngineProfiles(b *testing.B) {
	bin, err := workloads.Binary("minimal-service")
	if err != nil {
		b.Fatal(err)
	}
	for _, prof := range engine.Profiles() {
		b.Run(prof.Name, func(b *testing.B) {
			eng := engine.New(prof)
			for i := 0; i < b.N; i++ {
				cm, err := eng.Compile(bin)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(cm, wasi.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterStart measures wall-clock cost of simulating one
// 100-container deployment end to end (harness overhead, not paper data).
func BenchmarkClusterStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := bench.MeasureDeployment(bench.OursConfig, 100)
		if err != nil {
			b.Fatal(err)
		}
		if m.MetricsPerContainerMiB <= 0 {
			b.Fatal("no measurement")
		}
	}
}

// cellAllocs deploys one crun-wamr cell and returns what the whole cell —
// cluster, pre-pull, deploy, run — allocated, divided by its pods.
func cellAllocs(tb testing.TB, density int) (bytesPerPod, allocsPerPod float64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := bench.MeasureDeployment(bench.OursConfig, density); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(density),
		float64(after.Mallocs-before.Mallocs) / float64(density)
}

// BenchmarkDensityCell400 is the paper grid's heaviest cell (crun-wamr, 400
// pods): the host-side cost of one simulated pod, in time, bytes and
// allocations.
func BenchmarkDensityCell400(b *testing.B) {
	const density = 400
	b.ReportAllocs()
	var bytesPerPod, allocsPerPod float64
	for i := 0; i < b.N; i++ {
		bytesPerPod, allocsPerPod = cellAllocs(b, density)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/density/1e3, "us/pod")
	b.ReportMetric(bytesPerPod, "B/pod")
	b.ReportMetric(allocsPerPod, "allocs/pod")
}

// TestDensityPodAllocBytes guards the one-shot container path against the
// next per-instance zeroed buffer: a crun-wamr pod allocated about 200 KiB
// while every store started with a 128 KiB register stack, and about 70 KiB
// (one 64 KiB linear-memory page among them) without it. The allocation
// bound catches per-pod copies of what pods share: a deep copy of the image's
// files made 178 allocations per pod, a copy-on-write snapshot 117, and one
// spec template per image and one container template per Deploy about 105.
func TestDensityPodAllocBytes(t *testing.T) {
	cellAllocs(t, 10) // compile the image's module and warm the shared caches
	bytesPerPod, allocsPerPod := cellAllocs(t, 100)
	if bytesPerPod > 96<<10 {
		t.Fatalf("a crun-wamr pod at 100 pods allocates %.1f KiB, want under 96", bytesPerPod/1024)
	}
	if allocsPerPod > 120 {
		t.Fatalf("a crun-wamr pod at 100 pods allocates %.0f times, want at most 120", allocsPerPod)
	}
	t.Logf("crun-wamr x100: %.1f KiB and %.0f allocs per pod", bytesPerPod/1024, allocsPerPod)
}

var densityHeapProfile = flag.String("density-heapprofile", "",
	"TestDensityPodLiveHeap writes the in-use heap profile of its live 400-pod cluster here (MemProfileRate 1)")

// liveCluster builds one crun-wamr cluster of density pods and steps it to
// quiescence: NewCluster, PrePull, Deploy, Step, as the benchmark's density
// heap cell does.
func liveCluster(tb testing.TB, density int) *k8s.Cluster {
	tb.Helper()
	cfg := bench.OursConfig
	c, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Nodes[0].Runtime.PrePull(cfg.Image); err != nil {
		tb.Fatal(err)
	}
	pods, err := c.Deploy(k8s.DeployOptions{
		NamePrefix: cfg.RuntimeClass, RuntimeClassName: cfg.RuntimeClass, Image: cfg.Image, Replicas: density,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for c.Engine.Step() {
	}
	if _, err := c.LastStartTime(pods); err != nil {
		tb.Fatal(err)
	}
	return c
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDensityPodLiveHeap guards what one live pod holds once everything an
// image's pods share is held once: the heap of a 400-pod crun-wamr cluster
// after GC, over 400. With a spec, a container template and a
// shared-library map built per pod it read 3.74 KiB; shared, about 2.8.
// With -density-heapprofile the live heap by allocation site is one command
// away:
//
//	go test -run TestDensityPodLiveHeap -density-heapprofile h.pprof .
//	go tool pprof -top -sample_index=inuse_space h.pprof
func TestDensityPodLiveHeap(t *testing.T) {
	if *densityHeapProfile != "" {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
	}
	liveCluster(t, 10) // compile the image's module and warm the shared caches
	h0 := liveHeap()
	c := liveCluster(t, 400)
	h1 := liveHeap()
	if *densityHeapProfile != "" {
		f, err := os.Create(*densityHeapProfile)
		if err != nil {
			t.Fatal(err)
		}
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.KeepAlive(c)
	perPod := (float64(h1) - float64(h0)) / 1024 / 400
	if perPod > 3.3 {
		t.Fatalf("a live crun-wamr pod holds %.3f KiB of heap at 400 pods, want at most 3.3", perPod)
	}
	t.Logf("crun-wamr x400: %.3f KiB of live heap per pod", perPod)
}

// TestTableFormatting pins the harness table renderer output.
func TestTableFormatting(t *testing.T) {
	t2 := &bench.Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
	}
	got := t2.Format()
	want := "demo\na  b\n-  -\n1  2\n"
	if got != want {
		t.Fatalf("Format() = %q, want %q", got, want)
	}
}

// BenchmarkAblationMultiTenant runs the mixed-tenant future-work scenario.
func BenchmarkAblationMultiTenant(b *testing.B) { runExperiment(b, "ablation-multitenant") }

// BenchmarkServing runs the warm-pool gateway sweep (pool size x rate).
func BenchmarkServing(b *testing.B) { runExperiment(b, "serve") }
