package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The serve child is this binary re-executed; under go test that is the test
// binary, so TestMain answers -serve-child itself.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-serve-child" {
		if err := serveChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// weather names the checks that compare two timings: the smoke asserts that
// they ran, not that a machine busy running other packages' tests passed them.
var weather = map[string]bool{"closure": true, "separation": true}

func assertComplete(t *testing.T, res *workloadResult, specs []metricSpec, checks ...string) {
	t.Helper()
	for _, s := range specs {
		mv, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("%s: metric %s is missing", res.Workload, s.Name)
		} else if mv.Unit != s.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, s.Name, mv.Unit, s.Unit)
		}
	}
	ran := map[string]bool{}
	for _, c := range res.Checks {
		ran[c.Name] = true
		if !c.OK && !weather[c.Name] {
			t.Errorf("%s: check %s failed: %s", res.Workload, c.Name, c.Detail)
		}
	}
	for _, name := range checks {
		if !ran[name] {
			t.Errorf("%s: check %s did not run", res.Workload, name)
		}
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d", res.Workload, res.Attempted, res.Failed)
	}
}

// TestSmokeTimed runs every workload briefly against a real child and asserts
// every end-to-end metric is there and every output check ran.
func TestSmokeTimed(t *testing.T) {
	root := findRoot()
	sc := newScript(1)
	for _, w := range workloads {
		var res *workloadResult
		var err error
		if w.Density {
			res, err = runDensity(w, root, 0.5, 1)
			if err == nil {
				assertComplete(t, res, endToEnd, "pods-running", "ours-lowest", "virt_mib_per_ctr==fig4", "virt_startup_s==fig9")
			}
		} else {
			res, err = runHTTP(w, sc, 0.5, 1)
			if err == nil {
				assertComplete(t, res, endToEnd, "replies", "refused", "books", "warm")
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		line := res.driverLine()
		if len(line.Metrics) != len(endToEnd) || !line.Correct {
			t.Errorf("%s: driver line has %d metrics (want %d), correct=%v", w.Name, len(line.Metrics), len(endToEnd), line.Correct)
		}
	}
}

// TestSmokeTraced runs one short traced run: every per-layer metric by name,
// the guest-output checks, and a span file whose rungs link up.
func TestSmokeTraced(t *testing.T) {
	w := workloads[0]
	res, tf, err := traceRun(w, newScript(1), findRoot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	assertComplete(t, res, perLayer,
		"ladder:warm-steady", "ladder:cold-deploy", "ladder:density-cell", "ladder:container-start",
		"count_primes==sieve", "tiers-retire-same-instructions", "grow_touch==pages+1,reset", "handle(64)==1,reset",
		"cache-hit-counts", "virt_mib_per_ctr==fig4", "virt_startup_s==fig9", "closure", "separation")
	if len(tf.Spans) == 0 || len(tf.Rungs) != 7 || res.Samples == 0 {
		t.Fatalf("trace has %d spans, %d rungs", len(tf.Spans), len(tf.Rungs))
	}
	for _, s := range tf.Spans {
		if s.Parent >= 0 && tf.Spans[s.Parent].Op != s.Op {
			t.Fatalf("span %+v points at a parent of another op", s)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the contract the driver reads, in
// step with the spec this package reports by. UPDATE_BENCHMARK_JSON=1 rewrites it.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	want := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters, the contract allows 200 on one line", w.Name, len(w.Why))
		}
		want.Workloads = append(want.Workloads, wl{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		want.EndToEnd = append(want.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		want.PerLayer = append(want.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	b, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join(findRoot(), "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Errorf("BENCHMARK.json is out of step with spec.go; run UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSON")
	}
}
