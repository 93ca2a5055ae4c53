package bench

// The claims suite asserts that the reproduction preserves the paper's
// headline results (Section IV). Each test names the claim it checks. Most
// claims are "at least X%" bounds; tests assert the bound with a small
// tolerance, and where the paper gives an exact figure we assert the same
// direction and a roughly-matching factor.

import (
	"fmt"
	"testing"

	"wasmcontainers/internal/metrics"
)

// measure caches deployments across claims tests (each full 400-container
// run costs real time).
var measured = map[string]MemoryMeasurement{}

func m(t *testing.T, class, image string, density int) MemoryMeasurement {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%d", class, image, density)
	if v, ok := measured[key]; ok {
		return v
	}
	v, err := MeasureDeployment(RuntimeConfig{
		Label: class, RuntimeClass: class, Image: image,
		Ours: class == "crun-wamr",
	}, density)
	if err != nil {
		t.Fatalf("measure %s x%d: %v", class, density, err)
	}
	measured[key] = v
	return v
}

const density = 100 // representative density for memory claims

// Claim (abstract, IV-B): ours reduces memory 11%-78% per container vs
// existing Wasm runtimes.
func TestClaimOverallWasmReduction(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, density)
	for _, class := range []string{"crun-wasmtime", "crun-wasmer", "crun-wasmedge", "wasmtime", "wasmedge", "wasmer"} {
		other := m(t, class, WasmImage, density)
		red := metrics.Reduction(ours.FreePerContainerMiB, other.FreePerContainerMiB)
		if red < 11 || red > 79 {
			t.Errorf("vs %s: reduction %.1f%%, paper range is 11%%-78%%", class, red)
		}
	}
}

// Claim (IV-B): ours uses at least 50.34% less memory than any other crun
// Wasm runtime per the metrics server.
func TestClaimFig3MetricsServerReduction(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, density)
	for _, class := range []string{"crun-wasmtime", "crun-wasmer", "crun-wasmedge"} {
		other := m(t, class, WasmImage, density)
		red := metrics.Reduction(ours.MetricsPerContainerMiB, other.MetricsPerContainerMiB)
		if red < 50.34-1.0 {
			t.Errorf("vs %s (metrics server): %.2f%%, paper claims >= 50.34%%", class, red)
		}
	}
}

// Claim (IV-B): ours uses at least 40.0% less memory than any other crun
// Wasm runtime per free.
func TestClaimFig4FreeReduction(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, density)
	for _, class := range []string{"crun-wasmtime", "crun-wasmer", "crun-wasmedge"} {
		other := m(t, class, WasmImage, density)
		red := metrics.Reduction(ours.FreePerContainerMiB, other.FreePerContainerMiB)
		if red < 40.0-1.0 {
			t.Errorf("vs %s (free): %.2f%%, paper claims >= 40.0%%", class, red)
		}
	}
}

// Claim (IV-B): free reports higher usage than the metrics server, up to
// ~42% more.
func TestClaimFreeExceedsMetricsServer(t *testing.T) {
	maxGap := 0.0
	for _, class := range []string{"crun-wamr", "crun-wasmtime", "crun-wasmedge", "wasmtime", "wasmer"} {
		mm := m(t, class, WasmImage, density)
		gap := metrics.Increase(mm.FreePerContainerMiB, mm.MetricsPerContainerMiB)
		if gap <= 0 {
			t.Errorf("%s: free (%.2f) does not exceed metrics server (%.2f)",
				class, mm.FreePerContainerMiB, mm.MetricsPerContainerMiB)
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap < 25 || maxGap > 55 {
		t.Errorf("max free-vs-metrics gap %.1f%%, paper reports up to 42%%", maxGap)
	}
}

// Claim (IV-B): per-container memory does not vary significantly between
// deployment densities.
func TestClaimDensityStability(t *testing.T) {
	for _, class := range []string{"crun-wamr", "crun-wasmtime", "wasmtime"} {
		at10 := m(t, class, WasmImage, 10)
		at400 := m(t, class, WasmImage, 400)
		drift := at10.MetricsPerContainerMiB / at400.MetricsPerContainerMiB
		if drift < 0.95 || drift > 1.05 {
			t.Errorf("%s: metrics-server per-container drifted %0.2fx between 10 and 400", class, drift)
		}
	}
}

// Claim (IV-C): ours beats the best runwasi shim (containerd-shim-wasmtime)
// by at least 10.87% and the worst (wasmer) by ~77.53% (free view).
func TestClaimFig5RunwasiReductions(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, density)
	best := m(t, "wasmtime", WasmImage, density)
	red := metrics.Reduction(ours.FreePerContainerMiB, best.FreePerContainerMiB)
	if red < 10.87-1.0 {
		t.Errorf("vs containerd-shim-wasmtime: %.2f%%, paper claims >= 10.87%%", red)
	}
	worst := m(t, "wasmer", WasmImage, density)
	redWorst := metrics.Reduction(ours.FreePerContainerMiB, worst.FreePerContainerMiB)
	if redWorst < 74 || redWorst > 81 {
		t.Errorf("vs containerd-shim-wasmer: %.2f%%, paper reports 77.53%%", redWorst)
	}
}

// Claim (IV-D): ours uses at least ~18% less memory than Python containers
// per the metrics server (17.98% crun, 18.15% runC), and is the only Wasm
// runtime below the Python baselines there.
func TestClaimFig6PythonMetricsServer(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, density)
	crunPy := m(t, "crun", PythonImage, density)
	runcPy := m(t, "runc", PythonImage, density)
	if red := metrics.Reduction(ours.MetricsPerContainerMiB, crunPy.MetricsPerContainerMiB); red < 16.9 {
		t.Errorf("vs crun-python: %.2f%%, paper claims >= 17.98%%", red)
	}
	if red := metrics.Reduction(ours.MetricsPerContainerMiB, runcPy.MetricsPerContainerMiB); red < 16.9 {
		t.Errorf("vs runc-python: %.2f%%, paper claims >= 18.15%%", red)
	}
	// Every other Wasm runtime sits above Python in the metrics-server view.
	for _, class := range []string{"crun-wasmtime", "crun-wasmer", "crun-wasmedge", "wasmtime", "wasmedge", "wasmer"} {
		other := m(t, class, WasmImage, density)
		if other.MetricsPerContainerMiB < crunPy.MetricsPerContainerMiB {
			t.Errorf("%s (%.2f MiB) undercuts python (%.2f MiB); paper says ours is the only one",
				class, other.MetricsPerContainerMiB, crunPy.MetricsPerContainerMiB)
		}
	}
}

// Claim (IV-D): free view — ours >= 16.38% under crun-python and >= 17.87%
// under runc-python; shim-wasmtime also undercuts Python (by >= 4.66%).
func TestClaimFig7PythonFree(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, density)
	crunPy := m(t, "crun", PythonImage, density)
	runcPy := m(t, "runc", PythonImage, density)
	if red := metrics.Reduction(ours.FreePerContainerMiB, crunPy.FreePerContainerMiB); red < 16.38-1 {
		t.Errorf("vs crun-python (free): %.2f%%, paper claims >= 16.38%%", red)
	}
	if red := metrics.Reduction(ours.FreePerContainerMiB, runcPy.FreePerContainerMiB); red < 17.87-1 {
		t.Errorf("vs runc-python (free): %.2f%%, paper claims >= 17.87%%", red)
	}
	shim := m(t, "wasmtime", WasmImage, density)
	if red := metrics.Reduction(shim.FreePerContainerMiB, crunPy.FreePerContainerMiB); red < 4.66-1 {
		t.Errorf("shim-wasmtime vs python (free): %.2f%%, paper claims >= 4.66%%", red)
	}
}

// Claim (IV-E, Fig 8): at 10 containers, ours starts under ~3.3s, beats
// every other crun engine, beats both Python baselines, but loses to the
// wasmtime/wasmedge shims by up to ~11.45%.
func TestClaimFig8Startup10(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, 10)
	if ours.StartupSeconds > 3.35 {
		t.Errorf("ours at 10 ctrs: %.2fs, paper reports 3.24s", ours.StartupSeconds)
	}
	for _, class := range []string{"crun-wasmtime", "crun-wasmer", "crun-wasmedge"} {
		other := m(t, class, WasmImage, 10)
		if other.StartupSeconds <= ours.StartupSeconds {
			t.Errorf("%s (%.2fs) should be slower than ours (%.2fs) at 10 ctrs",
				class, other.StartupSeconds, ours.StartupSeconds)
		}
	}
	for _, py := range []string{"crun", "runc"} {
		pyM := m(t, py, PythonImage, 10)
		red := metrics.Reduction(ours.StartupSeconds, pyM.StartupSeconds)
		if red < 1.5 || red > 20 {
			t.Errorf("vs %s-python startup: %.1f%% faster, paper range 3%%-18%%", py, red)
		}
	}
	for _, shim := range []string{"wasmtime", "wasmedge"} {
		shimM := m(t, shim, WasmImage, 10)
		adv := metrics.Reduction(shimM.StartupSeconds, ours.StartupSeconds)
		if adv <= 0 || adv > 14 {
			t.Errorf("shim %s advantage at 10 ctrs: %.1f%%, paper reports up to 11.45%%", shim, adv)
		}
	}
}

// Claim (IV-E, Fig 9): at 400 containers the ranking flips — ours beats
// shim-wasmedge by ~18.82% and shim-wasmtime by ~28.38%, but is ~6.93%
// slower than crun-wasmtime; ours still beats both Python baselines.
func TestClaimFig9Startup400(t *testing.T) {
	ours := m(t, "crun-wamr", WasmImage, 400)
	shimEdge := m(t, "wasmedge", WasmImage, 400)
	shimTime := m(t, "wasmtime", WasmImage, 400)
	if red := metrics.Reduction(ours.StartupSeconds, shimEdge.StartupSeconds); red < 16 || red > 22 {
		t.Errorf("vs shim-wasmedge at 400: %.1f%% faster, paper reports 18.82%%", red)
	}
	if red := metrics.Reduction(ours.StartupSeconds, shimTime.StartupSeconds); red < 25 || red > 32 {
		t.Errorf("vs shim-wasmtime at 400: %.1f%% faster, paper reports 28.38%%", red)
	}
	crunTime := m(t, "crun-wasmtime", WasmImage, 400)
	slower := metrics.Increase(ours.StartupSeconds, crunTime.StartupSeconds)
	if slower < 4 || slower > 10 {
		t.Errorf("vs crun-wasmtime at 400: %.1f%% slower, paper reports 6.93%%", slower)
	}
	for _, py := range []string{"crun", "runc"} {
		pyM := m(t, py, PythonImage, 400)
		if ours.StartupSeconds >= pyM.StartupSeconds {
			t.Errorf("ours (%.1fs) should beat %s-python (%.1fs) at 400", ours.StartupSeconds, py, pyM.StartupSeconds)
		}
	}
}

// Claim (III-C): dynamic library loading keeps the engine out of per-
// container memory; static linking pays the library in every container.
func TestClaimDynamicLoadingAblation(t *testing.T) {
	dyn, err := measureCrunDirect(false, 50)
	if err != nil {
		t.Fatal(err)
	}
	static, err := measureCrunDirect(true, 50)
	if err != nil {
		t.Fatal(err)
	}
	if dyn >= static {
		t.Fatalf("dynamic (%.2f) should be below static (%.2f)", dyn, static)
	}
	// WAMR's library is ~1.5 MiB: the static penalty per container should be
	// roughly that.
	penalty := static - dyn
	if penalty < 1.0 || penalty > 2.0 {
		t.Fatalf("static-linking penalty %.2f MiB/ctr, expected ~1.5", penalty)
	}
}

// Table sanity: every registered experiment runs and renders.
func TestAllCheapExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy")
	}
	// Each runs twice: results/ holds only virtual-clock figures, so a rerun
	// must reproduce the JSON byte for byte.
	for _, id := range []string{"table1", "table2", "ablation-mode", "cow"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		table, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 || table.Format() == "" {
			t.Fatalf("%s: empty table", id)
		}
		again, err := e.Run()
		if err != nil {
			t.Fatalf("%s rerun: %v", id, err)
		}
		if a, b := table.JSON(), again.JSON(); a != b {
			t.Fatalf("%s is not deterministic:\n%s\n---\n%s", id, a, b)
		}
	}
}

// Per-container deviation across pods is negligible (paper: < 0.1 MB).
func TestClaimNegligiblePerContainerDeviation(t *testing.T) {
	cluster, pods := deployForTest(t, "crun-wamr", WasmImage, 50)
	var samples []float64
	for _, pm := range cluster.Metrics.AllPodMetrics(pods) {
		samples = append(samples, float64(pm.MemoryBytes)/(1024*1024))
	}
	s := metrics.Summarize(samples)
	if s.Max-s.Min > 0.1 {
		t.Fatalf("per-container spread %.3f MiB exceeds 0.1 MiB: %s", s.Max-s.Min, s)
	}
}

// Claim (IV-E): at 10 containers ours executes "below the average across
// all tested runtimes".
func TestClaimFig8BelowAverage(t *testing.T) {
	var total float64
	var ours float64
	for _, cfg := range AllConfigs {
		mm := m(t, cfg.RuntimeClass, cfg.Image, 10)
		total += mm.StartupSeconds
		if cfg.Ours {
			ours = mm.StartupSeconds
		}
	}
	avg := total / float64(len(AllConfigs))
	if ours >= avg {
		t.Fatalf("ours %.2fs not below all-runtime average %.2fs", ours, avg)
	}
}
