package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number. Spread, where recorded, is the in-run
// dispersion ((max-min)/median over the window's five segments) that
// -compare reads to call a delta unresolved instead of changed.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// check is one output check. A failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadResult is one workload's run, timed or traced.
type workloadResult struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Refused   int    `json:"refused"` // 429/503/504 replies seen by the generator
	// Samples is the latency sample count behind lat_p50_us and the tail
	// (traced: behind the untraced reference). TailPct is the percentile
	// lat_p99_us actually is: 99 unless fewer than ten samples lie beyond it.
	// Setups is how many set-ups setup_s is the median of.
	Samples int                    `json:"samples,omitempty"`
	Setups  int                    `json:"setups,omitempty"`
	TailPct float64                `json:"tail_pct,omitempty"`
	WindowS float64                `json:"window_s,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	Checks  []check                `json:"checks"`
	Shares  map[string]float64     `json:"layer_share_pct,omitempty"`
	Notes   []string               `json:"notes,omitempty"`
	specs   []metricSpec
}

func newResult(w workload, traced bool) *workloadResult {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	return &workloadResult{Workload: w.Name, Traced: traced, Metrics: map[string]metricValue{}, specs: specs}
}

// set records a metric of the run's spec or, ungated, a demoted one.
func (r *workloadResult) set(name string, v float64) {
	for _, specs := range [][]metricSpec{r.specs, demoted} {
		for _, s := range specs {
			if s.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the spec")
}

func (r *workloadResult) setSpread(name string, spread float64) {
	mv := r.Metrics[name]
	mv.Spread = spread
	r.Metrics[name] = mv
}

func (r *workloadResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// correct: every check passed, no op failed, every metric of the spec is there.
func (r *workloadResult) correct() bool {
	if r.Failed != 0 || r.Attempted < 1 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	for _, s := range r.specs {
		if _, ok := r.Metrics[s.Name]; !ok {
			return false
		}
	}
	return true
}

func (r *workloadResult) print(w io.Writer) {
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", r.Workload, mode)
	fmt.Fprintf(w, "requests: sent %d  succeeded %d  failed %d", r.Attempted, r.Attempted-r.Failed, r.Failed)
	if r.Samples > 0 {
		fmt.Fprintf(w, "  latency samples %d", r.Samples)
	}
	if r.WindowS > 0 {
		fmt.Fprintf(w, "  window %.2fs", r.WindowS)
	}
	fmt.Fprintln(w)
	for _, s := range r.specs {
		mv, ok := r.Metrics[s.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s MISSING\n", s.Name)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", s.Name, mv.Value, mv.Unit)
	}
	if !r.Traced {
		for _, s := range demoted {
			if mv, ok := r.Metrics[s.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s (printed, not gated)\n", s.Name, mv.Value, mv.Unit)
			}
		}
	}
	if r.TailPct > 0 {
		fmt.Fprintf(w, "  lat_p99_us is p%g of %d samples\n", r.TailPct, r.Samples)
	}
	if len(r.Shares) > 0 {
		fmt.Fprintln(w, "  layer self time as share of traced p50:")
		for _, k := range sortedKeys(r.Shares) {
			fmt.Fprintf(w, "    %-32s %6.1f %%\n", k, r.Shares[k])
		}
	}
	bad := 0
	for _, c := range r.Checks {
		if !c.OK {
			bad++
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  checks: %d run, %d failed\n", len(r.Checks), bad)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// runEnv is recorded with every run so two files can be told apart.
type runEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Conns      int     `json:"conns"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// runFile is what benchmark/out/<run>.json holds.
type runFile struct {
	Schema    int               `json:"schema"`
	Env       runEnv            `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func currentEnv(root string, seed int64, seconds float64, trace bool) runEnv {
	commit := "unknown" // the driver's checkout is not a git repository
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return runEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: seed, Conns: connections(), Seconds: seconds, Trace: trace,
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the last line of standard output: the contract with whoever
// runs BENCHMARK.json's command.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *workloadResult) driverLine() driverLine {
	dl := driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, s := range r.specs {
		if mv, ok := r.Metrics[s.Name]; ok {
			dl.Metrics[s.Name] = metricValue{Value: mv.Value, Unit: mv.Unit} // value and unit only: no spread
		}
	}
	return dl
}

// sortedKeys lists m's keys, largest value first.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	return keys
}
