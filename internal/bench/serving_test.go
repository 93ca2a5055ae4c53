package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/workloads"
)

// The serving acceptance claim: for every engine profile, warm p50 latency
// is at least 10x below cold p50, and standing pool memory is charged the way
// the daemon's replica charges it — instances to the pod cgroup (the
// kubelet/metrics-server vantage), the module's shared artifacts once to the
// node (the `free` vantage only).
func TestServingWarmBeatsColdTenXPerEngine(t *testing.T) {
	const window = 500 * time.Millisecond
	const poolSize = 2
	bin, err := workloads.Binary(ServingWorkload)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range engine.Profiles() {
		warm, err := MeasureServing(p, poolSize, 50, window)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := MeasureServing(p, 0, 20, window)
		if err != nil {
			t.Fatal(err)
		}
		w := warm.Report.WarmLatency
		c := cold.Report.ColdLatency
		if w.N == 0 || c.N == 0 {
			t.Fatalf("%s: missing samples (warm n=%d, cold n=%d)", p.Name, w.N, c.N)
		}
		if w.P50*10 > c.P50 {
			t.Errorf("%s: warm p50 %.6fs not 10x under cold p50 %.6fs", p.Name, w.P50, c.P50)
		}

		// The module's artifact sizes, from a compile and a first instantiate
		// of our own.
		eng := engine.New(p)
		cm, err := eng.Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Instantiate(cm); err != nil {
			t.Fatal(err)
		}
		arts := cm.SharedArtifacts()
		code := simos.RoundPages(arts[engine.ArtifactCode].Bytes)
		image := simos.RoundPages(arts[engine.ArtifactData].Bytes)
		if code <= 0 || image <= 0 {
			t.Fatalf("%s: artifacts %+v", p.Name, arts)
		}

		// A cold-only pool holds no instances: nothing in the pod cgroup, and
		// on the node exactly the one shared compiled-code artifact.
		if cold.PoolKubeletMiB != 0 || cold.poolNodeBytes != code {
			t.Errorf("%s: cold-only pool standby memory: kubelet %.0f B, node %d B, want 0 and the shared code (%d B)",
				p.Name, cold.PoolKubeletMiB*(1<<20), cold.poolNodeBytes, code)
		}
		// A warm pool charges its instances to the cgroup; the node
		// additionally holds code and baseline image once.
		instances := simos.RoundPages(poolSize * p.WarmInstanceBytes)
		if got := int64(warm.PoolKubeletMiB * (1 << 20)); got != instances {
			t.Errorf("%s: kubelet vantage %d B, want the %d instances only (%d B)", p.Name, got, poolSize, instances)
		}
		if warm.poolNodeBytes != instances+code+image {
			t.Errorf("%s: free vantage %d B, want instances + code + image once (%d B)",
				p.Name, warm.poolNodeBytes, instances+code+image)
		}
	}
}

func TestServingMeasurementDeterministic(t *testing.T) {
	a, err := MeasureServing(engine.WAMR, 2, 80, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureServing(engine.WAMR, 2, 80, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("serving measurement not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestTableJSONRoundTrips(t *testing.T) {
	tab := &Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	j := tab.JSON()
	for _, want := range []string{`"Title": "t"`, `"Columns"`, `"Rows"`, `"Notes"`} {
		if !strings.Contains(j, want) {
			t.Fatalf("JSON missing %s:\n%s", want, j)
		}
	}
	if !strings.HasSuffix(j, "\n") {
		t.Fatal("JSON output not newline-terminated")
	}
	// The schema version is stamped at render time, and without telemetry the
	// snapshot block is omitted entirely.
	var parsed struct {
		SchemaVersion int             `json:"schema_version"`
		Telemetry     json.RawMessage `json:"telemetry"`
	}
	if err := json.Unmarshal([]byte(j), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.SchemaVersion != TableSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", parsed.SchemaVersion, TableSchemaVersion)
	}
	if parsed.Telemetry != nil {
		t.Fatalf("telemetry block present without a snapshot: %s", parsed.Telemetry)
	}
}

// TestTableJSONCarriesTelemetrySnapshot attaches a snapshot the way
// cmd/continuum -telemetry does and checks it round-trips through the JSON
// rendering.
func TestTableJSONCarriesTelemetrySnapshot(t *testing.T) {
	tele := obs.New(obs.Config{})
	tele.Counter("dispatch_completed_total").Add(7)
	tele.Histogram("dispatch_latency_ns").Record(1500)
	snap := tele.Snapshot()
	tab := &Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}, Telemetry: &snap}
	var parsed struct {
		SchemaVersion int           `json:"schema_version"`
		Telemetry     *obs.Snapshot `json:"telemetry"`
	}
	if err := json.Unmarshal([]byte(tab.JSON()), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Telemetry == nil {
		t.Fatal("telemetry block missing")
	}
	if len(parsed.Telemetry.Counters) != 1 || parsed.Telemetry.Counters[0].Value != 7 {
		t.Fatalf("counters = %+v", parsed.Telemetry.Counters)
	}
	if len(parsed.Telemetry.Histograms) != 1 || parsed.Telemetry.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", parsed.Telemetry.Histograms)
	}
}

// TestMeasureServingWithTelemetry runs one observed serving measurement end
// to end through the package-level sink (the cmd/continuum -telemetry path)
// and checks the run leaves both metrics and lifecycle spans behind, on the
// simulated timeline.
func TestMeasureServingWithTelemetry(t *testing.T) {
	tele := obs.New(obs.Config{})
	SetTelemetry(tele)
	defer SetTelemetry(nil)
	m, err := MeasureServing(engine.WAMR, 2, 80, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range tele.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if got := counters["dispatch_completed_total"]; got != m.Report.Dispatcher.Completed {
		t.Errorf("dispatch_completed_total = %d, want %d", got, m.Report.Dispatcher.Completed)
	}
	if got := counters["loadgen_offered_total"]; got != m.Report.Offered {
		t.Errorf("loadgen_offered_total = %d, want %d", got, m.Report.Offered)
	}
	if got := counters[obs.Labeled("engine_instantiates_total", "engine", "wamr")]; got == 0 {
		t.Error("no engine instantiates observed")
	}
	if got := counters["modcache_misses_total"]; got != 1 {
		t.Errorf("modcache_misses_total = %d, want 1 compile", got)
	}
	phases := map[string]bool{}
	for _, s := range tele.Tracer().Spans() {
		phases[s.Name] = true
		if s.PID == 0 {
			t.Fatalf("span missing run PID: %+v", s)
		}
	}
	for _, want := range []string{"module-load", "instantiate", "acquire", "invoke", "reset"} {
		if !phases[want] {
			t.Errorf("no %q spans in observed serving run (got %v)", want, phases)
		}
	}
}
