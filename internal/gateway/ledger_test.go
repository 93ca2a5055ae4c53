package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// ledgerSink and binSink keep each row's product live, as its caller would;
// an encoding gets its own typed sink because boxing a slice allocates.
var (
	ledgerSink any
	binSink    []byte
)

// TestDeployAllocLedger prices a cold deploy layer by layer: each row is one
// layer's allocations for a fresh request-handler variant (a 160-byte
// module), run in the order a lazy deploy runs them, and the last row is the
// whole deploy through ServeHTTP with the benchmark's function shape (pool 4,
// concurrency 4). A row's max is its pinned reading; a layer that starts
// allocating more fails here, named, before it shows in the end-to-end row.
// The layer rows run on the test goroutine and are pinned at their readings;
// the lazy-deploy row also runs the bridge goroutine and sync.Pool, so it is
// pinned, like TestLazyDeployAllocs, at its reading (109) + 3. Before each
// layer was trimmed the rows read 3, 14, 15, 5, 8, 36, 3, 14 and 138.
func TestDeployAllocLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count varies")
	}
	const runs = 50
	// AllocsPerRun calls each row runs+1 times; a row that must see a fresh
	// module each time indexes these.
	names := make([]string, runs+1)
	bins := make([][]byte, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("%sledger%d", workloads.HandlerVariantPrefix, i)
		b, err := workloads.Binary(names[i])
		if err != nil {
			t.Fatal(err)
		}
		bins[i] = b
	}
	variant, err := workloads.Module(names[0])
	if err != nil {
		t.Fatal(err)
	}
	bin := bins[0]
	decoded, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WAMR)
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Instantiate(cm); err != nil { // publishes the baseline image
		t.Fatal(err)
	}
	missEng := engine.New(engine.WAMR)

	tmpl := DefaultFunction()
	tmpl.PoolSize, tmpl.MaxConcurrency = 4, 4
	gw, err := New(Config{
		Functions:    []FunctionConfig{DefaultFunction()},
		LazyTemplate: &tmpl,
		Bridge:       BridgeConfig{Dilation: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	t.Cleanup(func() { gw.Bridge().Stop() })

	must := func(v any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ledgerSink = v
	}
	rows := []struct {
		name string
		max  float64
		run  func(i int)
	}{
		{"variant", 3, func(i int) { must(workloads.Module(names[i])) }},
		{"encode", 1, func(int) { binSink = wasm.Encode(variant) }},
		{"decode", 9, func(int) { must(wasm.Decode(bin)) }},
		{"validate", 1, func(int) { must(nil, wasm.Validate(decoded)) }},
		{"precompile", 6, func(int) { must(exec.Precompile(decoded)) }},
		{"compile-miss", 24, func(i int) { must(missEng.Compile(bins[i])) }},
		{"instantiate", 2, func(int) { must(eng.Instantiate(cm)) }},
		{"new-pool-4", 10, func(int) { must(serve.NewPool(eng, cm, serve.Config{Size: 4})) }},
		{"lazy-deploy", 112, func(i int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/functions/"+names[i], strings.NewReader("x"))
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("lazy deploy of %s: status %d body %s", names[i], rec.Code, rec.Body)
			}
		}},
	}
	for _, row := range rows {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			row.run(i)
			i++
		})
		t.Logf("%-12s %4.0f allocs (max %.0f)", row.name, allocs, row.max)
		if allocs > row.max {
			t.Errorf("%s allocates %.0f times, want at most %.0f", row.name, allocs, row.max)
		}
	}
}
