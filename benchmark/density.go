package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wasmcontainers/internal/bench"
)

// The density workload is the paper's own experiment, run in this process
// with no HTTP: for every runtime in bench.AllConfigs and every density in
// bench.Densities, a fresh simulated cluster deploys that many pods and both
// memory vantage points and the start time are read. One op is one pod
// reaching Running; one latency sample is one grid cell's wall time per pod.

// gridChecker holds the latest measurement of each cell and checks a
// completed pass over the grid.
type gridChecker struct {
	cells map[string]bench.MemoryMeasurement // "<label>/<density>"
}

func cellKey(label string, density int) string { return fmt.Sprintf("%s/%d", label, density) }

func (g *gridChecker) put(m bench.MemoryMeasurement) {
	if g.cells == nil {
		g.cells = map[string]bench.MemoryMeasurement{}
	}
	g.cells[cellKey(m.Config.Label, m.Density)] = m
}

func (g *gridChecker) ours(density int) bench.MemoryMeasurement {
	return g.cells[cellKey(bench.OursConfig.Label, density)]
}

// oursLowest: the paper's claim, on both vantage points at every density.
func (g *gridChecker) oursLowest() error {
	for _, d := range bench.Densities {
		ours := g.ours(d)
		for _, cfg := range bench.AllConfigs {
			if cfg.Ours {
				continue
			}
			o := g.cells[cellKey(cfg.Label, d)]
			if ours.MetricsPerContainerMiB >= o.MetricsPerContainerMiB || ours.FreePerContainerMiB >= o.FreePerContainerMiB {
				return fmt.Errorf("at %d pods ours is %.3f/%.3f MiB (cgroup/free), %s is %.3f/%.3f",
					d, ours.MetricsPerContainerMiB, ours.FreePerContainerMiB,
					cfg.Label, o.MetricsPerContainerMiB, o.FreePerContainerMiB)
			}
		}
	}
	return nil
}

// committedCell reads one cell of a committed results/<fig>.json table: the
// row of our runtime, the last column.
func committedCell(root, fig string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "results", fig+".json"))
	if err != nil {
		return "", err
	}
	var t struct{ Rows [][]string }
	if err := json.Unmarshal(b, &t); err != nil {
		return "", fmt.Errorf("results/%s.json: %w", fig, err)
	}
	for _, row := range t.Rows {
		if len(row) > 1 && row[0] == bench.OursConfig.Label {
			return row[len(row)-1], nil
		}
	}
	return "", fmt.Errorf("results/%s.json has no row %q", fig, bench.OursConfig.Label)
}

// checkVirtual: the virtual headline, rounded as committed, equals the
// crun-wamr 400-pod cells of results/fig4.json and results/fig9.json.
func checkVirtual(r *workloadResult, root string, ours400 bench.MemoryMeasurement) {
	for _, c := range []struct {
		name, fig string
		got       float64
	}{
		{"virt_mib_per_ctr==fig4", "fig4", ours400.FreePerContainerMiB},
		{"virt_startup_s==fig9", "fig9", ours400.StartupSeconds},
	} {
		want, err := committedCell(root, c.fig)
		if err != nil {
			r.check(c.name, false, "%v", err)
			continue
		}
		got := fmt.Sprintf("%.2f", c.got)
		r.check(c.name, got == want, "measured %s, results/%s.json commits %s", got, c.fig, want)
	}
}

func selfMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runDensity is the timed run of the density workload. Set-up is one full
// pass over the grid, taken setups times; the window then loops the grid.
func runDensity(w workload, root string, seconds float64, setups int) (*workloadResult, error) {
	r := newResult(w, false)
	var grid gridChecker
	var firstFail string
	cell := func(cfg bench.RuntimeConfig, d int) (time.Duration, bool) {
		t0 := time.Now()
		m, err := bench.MeasureDeployment(cfg, d)
		el := time.Since(t0)
		r.Attempted += d
		if err != nil {
			r.Failed += d
			if firstFail == "" {
				firstFail = err.Error()
			}
			return el, false
		}
		grid.put(m)
		return el, true
	}
	passOK := true
	checkPass := func() {
		if err := grid.oursLowest(); err != nil && passOK {
			passOK = false
			r.check("ours-lowest", false, "%v", err)
		}
	}

	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		for _, cfg := range bench.AllConfigs {
			for _, d := range bench.Densities {
				cell(cfg, d)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		checkPass()
	}

	window := time.Duration(seconds * float64(time.Second))
	var perPodUS, pods []float64
	var ends []time.Duration
	cpu0, mallocs0 := selfCPU(), selfMallocs()
	start := time.Now()
	ops := 0
loop:
	for {
		for _, cfg := range bench.AllConfigs {
			for _, d := range bench.Densities {
				if time.Since(start) >= window {
					break loop
				}
				el, ok := cell(cfg, d)
				if !ok {
					continue
				}
				ops += d
				perPodUS = append(perPodUS, float64(el)/1e3/float64(d))
				pods = append(pods, float64(d))
				ends = append(ends, time.Since(start))
			}
		}
		checkPass()
	}
	elapsed := time.Since(start)
	cpu, mallocs := selfCPU()-cpu0, selfMallocs()-mallocs0

	r.WindowS = elapsed.Seconds()
	r.set("setup_s", median(setupS))
	r.Setups = len(setupS)
	reportWindow(r, perPodUS, ends, pods, elapsed, 1)
	if ops > 0 {
		r.set("cpu_us_per_op", float64(cpu)/1e3/float64(ops))
		r.set("allocs_per_op", float64(mallocs)/float64(ops))
	}

	// Real heap per simulated pod: what this process holds for one live
	// 400-pod cluster of ours, after GC.
	h0 := liveHeap()
	cluster, _, err := oursCell(400, func(_, _ string, fn func()) { fn() })
	if err != nil {
		return nil, err
	}
	h1 := liveHeap()
	runtime.KeepAlive(cluster)
	r.set("heap_kib_per_instance", (float64(h1)-float64(h0))/1024/400)

	r.check("pods-running", r.Failed == 0, "%d of %d pods did not start, first: %s", r.Failed, r.Attempted, firstFail)
	if passOK {
		r.check("ours-lowest", true, "")
	}
	ours400 := grid.ours(400)
	checkVirtual(r, root, ours400)
	r.Notes = append(r.Notes,
		fmt.Sprintf("virt_mib_per_ctr %.6f MiB, virt_startup_s %.6f sim-s, cgroup vantage %.6f MiB (crun-wamr, 400 pods)",
			ours400.FreePerContainerMiB, ours400.StartupSeconds, ours400.MetricsPerContainerMiB),
		fmt.Sprintf("in-process, single goroutine; %d set-up pass(es); fail_ratio %.6f", setups, failRatio(r)))
	return r, nil
}
