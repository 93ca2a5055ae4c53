// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table I/II, Figures 3-10) on the
// simulated cluster, plus the ablation studies DESIGN.md calls out. Each
// experiment returns a Table whose rows mirror what the paper plots.
package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/simos"
)

// TableSchemaVersion identifies the JSON layout of Table. Bump it when
// renaming or removing fields so downstream consumers of results/<id>.json
// can detect incompatible output. v3 added an omitempty `timeseries` key. The
// key is retired; only the removed slo experiment ever wrote it, so the
// version stays 3.
const TableSchemaVersion = 3

// WasmImage and PythonImage are the benchmark images (the paper's minimal
// microservice in both forms).
const (
	WasmImage   = "minimal-service:wasm"
	PythonImage = "python-minimal-service:3.11"
)

// Densities are the paper's deployment sizes (containers per node, one
// container per pod).
var Densities = []int{10, 100, 400}

// RuntimeConfig is one benchmarked runtime configuration.
type RuntimeConfig struct {
	// Label as it appears on the figure axis.
	Label string
	// RuntimeClass selects the handler.
	RuntimeClass string
	// Image is the workload image.
	Image string
	// Ours marks the paper's contribution (plotted in red).
	Ours bool
	// Wasm marks Wasm configurations (vs Python baselines).
	Wasm bool
}

// Configuration groups matching the paper's figures.
var (
	// OursConfig is crun with embedded WAMR.
	OursConfig = RuntimeConfig{Label: "crun-wamr (ours)", RuntimeClass: "crun-wamr", Image: WasmImage, Ours: true, Wasm: true}

	// CrunEngineConfigs are the Figure 3/4 set: Wasm engines embedded in crun.
	CrunEngineConfigs = []RuntimeConfig{
		OursConfig,
		{Label: "crun-wasmtime", RuntimeClass: "crun-wasmtime", Image: WasmImage, Wasm: true},
		{Label: "crun-wasmer", RuntimeClass: "crun-wasmer", Image: WasmImage, Wasm: true},
		{Label: "crun-wasmedge", RuntimeClass: "crun-wasmedge", Image: WasmImage, Wasm: true},
	}

	// RunwasiConfigs are the Figure 5 set: runwasi shims plus ours.
	RunwasiConfigs = []RuntimeConfig{
		OursConfig,
		{Label: "containerd-shim-wasmtime", RuntimeClass: "wasmtime", Image: WasmImage, Wasm: true},
		{Label: "containerd-shim-wasmedge", RuntimeClass: "wasmedge", Image: WasmImage, Wasm: true},
		{Label: "containerd-shim-wasmer", RuntimeClass: "wasmer", Image: WasmImage, Wasm: true},
	}

	// PythonConfigs are the Figure 6/7 set: ours vs Python containers, with
	// the best runwasi shim for reference.
	PythonConfigs = []RuntimeConfig{
		OursConfig,
		{Label: "crun-python", RuntimeClass: "crun", Image: PythonImage},
		{Label: "runc-python", RuntimeClass: "runc", Image: PythonImage},
		{Label: "containerd-shim-wasmtime", RuntimeClass: "wasmtime", Image: WasmImage, Wasm: true},
	}

	// AllConfigs is the Figure 8/9/10 set: every benchmarked runtime.
	AllConfigs = []RuntimeConfig{
		OursConfig,
		{Label: "crun-wasmtime", RuntimeClass: "crun-wasmtime", Image: WasmImage, Wasm: true},
		{Label: "crun-wasmer", RuntimeClass: "crun-wasmer", Image: WasmImage, Wasm: true},
		{Label: "crun-wasmedge", RuntimeClass: "crun-wasmedge", Image: WasmImage, Wasm: true},
		{Label: "containerd-shim-wasmtime", RuntimeClass: "wasmtime", Image: WasmImage, Wasm: true},
		{Label: "containerd-shim-wasmedge", RuntimeClass: "wasmedge", Image: WasmImage, Wasm: true},
		{Label: "containerd-shim-wasmer", RuntimeClass: "wasmer", Image: WasmImage, Wasm: true},
		{Label: "crun-python", RuntimeClass: "crun", Image: PythonImage},
		{Label: "runc-python", RuntimeClass: "runc", Image: PythonImage},
	}
)

// Table is a printable experiment result.
type Table struct {
	// SchemaVersion stamps the JSON layout (TableSchemaVersion); zero until
	// JSON() renders the table.
	SchemaVersion int `json:"schema_version"`
	Title         string
	Columns       []string
	Rows          [][]string
	// Notes carries derived observations (reduction percentages etc.).
	Notes []string
	// Telemetry is the metrics snapshot of the run that produced the table,
	// attached by cmd/continuum when -telemetry is set; omitted otherwise.
	Telemetry *obs.Snapshot `json:"telemetry,omitempty"`
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(cell, widths[i]))
		}
		sb.WriteString("\n")
	}
	line(t.Columns)
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		if i < len(t.Columns)-1 {
			sb.WriteString("  ")
		}
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quotes around cells
// containing commas).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// JSON renders the table as indented JSON (machine-readable counterpart of
// Format/CSV; written as <id>.json by cmd/continuum). It stamps the current
// schema version.
func (t *Table) JSON() string {
	t.SchemaVersion = TableSchemaVersion
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b) + "\n"
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// MemoryMeasurement holds both vantage points for one run.
type MemoryMeasurement struct {
	Config  RuntimeConfig
	Density int
	// MetricsPerContainerMiB is memory.current summed over pods / N.
	MetricsPerContainerMiB float64
	// FreePerContainerMiB is used-beyond-idle / N from the simulated free.
	FreePerContainerMiB float64
	// StartupSeconds is the time until the last workload began executing.
	StartupSeconds float64
}

// MeasureDeployment deploys `density` pods of cfg on a fresh cluster and
// returns both memory vantage points plus startup latency.
func MeasureDeployment(cfg RuntimeConfig, density int) (MemoryMeasurement, error) {
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return MemoryMeasurement{}, err
	}
	tele := Telemetry()
	if tr := tele.Tracer(); tr != nil {
		tr.SetClock(func() int64 { return int64(cluster.Engine.Now()) })
		tr.SetPID(nextRunPID())
	}
	cluster.SetObserver(tele)
	// Pre-pull the image: the paper measures with images already present,
	// so layer cache is excluded from per-container figures.
	if err := cluster.Nodes[0].Runtime.PrePull(cfg.Image); err != nil {
		return MemoryMeasurement{}, err
	}
	freeBaseline := cluster.Nodes[0].OS.UsedBeyondIdle()
	pods, err := cluster.Deploy(k8s.DeployOptions{
		NamePrefix:       cfg.RuntimeClass,
		RuntimeClassName: cfg.RuntimeClass,
		Image:            cfg.Image,
		Replicas:         density,
	})
	if err != nil {
		return MemoryMeasurement{}, err
	}
	cluster.Run()
	last, err := cluster.LastStartTime(pods)
	if err != nil {
		return MemoryMeasurement{}, fmt.Errorf("%s x%d: %w", cfg.Label, density, err)
	}
	cgroupTotal := cluster.Metrics.TotalWorkloadBytes()
	freeTotal := cluster.Nodes[0].OS.UsedBeyondIdle() - freeBaseline
	return MemoryMeasurement{
		Config:                 cfg,
		Density:                density,
		MetricsPerContainerMiB: mib(cgroupTotal) / float64(density),
		FreePerContainerMiB:    mib(freeTotal) / float64(density),
		StartupSeconds:         float64(last) / 1e9,
	}, nil
}

func mib(b int64) float64 { return float64(b) / float64(simos.MiB) }

// MemoryFigure runs a config set across all densities and renders the
// figure-style table for the chosen vantage point.
func MemoryFigure(title string, configs []RuntimeConfig, useFree bool) (*Table, []MemoryMeasurement, error) {
	cols := []string{"runtime"}
	for _, d := range Densities {
		cols = append(cols, fmt.Sprintf("%d ctrs (MiB/ctr)", d))
	}
	t := &Table{Title: title, Columns: cols}
	var all []MemoryMeasurement
	for _, cfg := range configs {
		row := []string{cfg.Label}
		for _, d := range Densities {
			m, err := MeasureDeployment(cfg, d)
			if err != nil {
				return nil, nil, err
			}
			all = append(all, m)
			v := m.MetricsPerContainerMiB
			if useFree {
				v = m.FreePerContainerMiB
			}
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	addReductionNotes(t, all, useFree)
	return t, all, nil
}

// addReductionNotes appends ours-vs-best-other reduction notes.
func addReductionNotes(t *Table, ms []MemoryMeasurement, useFree bool) {
	byLabel := map[string][]float64{}
	var order []string
	for _, m := range ms {
		v := m.MetricsPerContainerMiB
		if useFree {
			v = m.FreePerContainerMiB
		}
		if _, ok := byLabel[m.Config.Label]; !ok {
			order = append(order, m.Config.Label)
		}
		byLabel[m.Config.Label] = append(byLabel[m.Config.Label], v)
	}
	oursAvg, ok := avgOf(byLabel, OursConfig.Label)
	if !ok {
		return
	}
	type other struct {
		label string
		avg   float64
	}
	var others []other
	for _, l := range order {
		if l == OursConfig.Label {
			continue
		}
		if a, ok := avgOf(byLabel, l); ok {
			others = append(others, other{l, a})
		}
	}
	sort.Slice(others, func(i, j int) bool { return others[i].avg < others[j].avg })
	for _, o := range others {
		t.Notes = append(t.Notes, fmt.Sprintf("ours vs %s: %.2f%% less memory per container",
			o.label, 100*(1-oursAvg/o.avg)))
	}
}

func avgOf(m map[string][]float64, key string) (float64, bool) {
	vs, ok := m[key]
	if !ok || len(vs) == 0 {
		return 0, false
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs)), true
}

// StartupFigure measures time-to-last-start for every config at one density.
func StartupFigure(title string, configs []RuntimeConfig, density int) (*Table, []MemoryMeasurement, error) {
	t := &Table{
		Title:   title,
		Columns: []string{"runtime", fmt.Sprintf("time to start %d containers (s)", density)},
	}
	var all []MemoryMeasurement
	for _, cfg := range configs {
		m, err := MeasureDeployment(cfg, density)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, m)
		t.Rows = append(t.Rows, []string{cfg.Label, fmt.Sprintf("%.2f", m.StartupSeconds)})
	}
	return t, all, nil
}
