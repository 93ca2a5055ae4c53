package workloads

import (
	"bytes"
	"strconv"
	"testing"

	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
)

func TestAllWorkloadsDecodeAndValidate(t *testing.T) {
	for _, name := range Names() {
		bin, err := Binary(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := wasm.Decode(bin)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := wasm.Validate(m); err != nil {
			t.Fatalf("%s: validate: %v", name, err)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Module("missing"); err == nil {
		t.Fatal("unknown workload accepted")
	} else if _, ok := err.(*UnknownWorkloadError); !ok {
		t.Fatalf("wrong error type: %T", err)
	}
}

func TestModuleCaching(t *testing.T) {
	a, err := Module("minimal-service")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Module("minimal-service")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("modules not cached")
	}
}

func TestCPUBoundCorrectness(t *testing.T) {
	m, _ := Module("cpu-bound")
	s := exec.NewStore(exec.Config{})
	inst, err := s.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	// pi(x): number of primes below x.
	cases := map[int32]int32{2: 0, 3: 1, 10: 4, 100: 25, 1000: 168}
	for limit, want := range cases {
		res, err := inst.Call("count_primes", exec.I32(limit))
		if err != nil {
			t.Fatal(err)
		}
		if got := exec.AsI32(res[0]); got != want {
			t.Errorf("count_primes(%d) = %d, want %d", limit, got, want)
		}
	}
}

func TestMemoryBoundGrowth(t *testing.T) {
	m, _ := Module("memory-bound")
	s := exec.NewStore(exec.Config{})
	inst, err := s.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("grow_touch", exec.I32(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res[0]); got != 8 {
		t.Fatalf("pages = %d, want 8", got)
	}
	// Growing past the 64-page max fails with -1.
	res, err = inst.Call("grow_touch", exec.I32(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res[0]); got != -1 {
		t.Fatalf("over-grow = %d, want -1", got)
	}
}

func TestRequestHandlerCounterAndWork(t *testing.T) {
	m, _ := Module("request-handler")
	s := exec.NewStore(exec.Config{})
	inst, err := s.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	// The counter climbs across calls on the same (un-reset) instance:
	// that climb is the state bleed the serve pool's reset must erase.
	for want := int32(1); want <= 3; want++ {
		res, err := inst.Call("handle", exec.I32(16))
		if err != nil {
			t.Fatal(err)
		}
		if got := exec.AsI32(res[0]); got != want {
			t.Fatalf("handle call %d returned %d", want, got)
		}
	}
	// Scratch bytes really get dirtied.
	mem := inst.Memory()
	b, ok := mem.Read(64, 16)
	if !ok {
		t.Fatal("scratch read failed")
	}
	for i, v := range b {
		if v != 171 {
			t.Fatalf("scratch[%d] = %d, want 171", i, v)
		}
	}
	// Work scales with the argument (8n loop iterations).
	before := s.InstructionCount()
	if _, err := inst.Call("handle", exec.I32(1000)); err != nil {
		t.Fatal(err)
	}
	big := s.InstructionCount() - before
	before = s.InstructionCount()
	if _, err := inst.Call("handle", exec.I32(10)); err != nil {
		t.Fatal(err)
	}
	small := s.InstructionCount() - before
	if big < 10*small {
		t.Fatalf("work did not scale: n=1000 cost %d, n=10 cost %d", big, small)
	}
}

func TestMinimalServiceIsSmall(t *testing.T) {
	// The paper's premise: the workload must be tiny so the runtime
	// dominates. Binary under 4 KiB, one memory page, a few thousand
	// instructions.
	bin, _ := Binary("minimal-service")
	if len(bin) > 4096 {
		t.Fatalf("minimal-service binary is %d bytes", len(bin))
	}
	m, _ := Module("minimal-service")
	w := wasi.New(wasi.Config{Stdout: &bytes.Buffer{}})
	s := exec.NewStore(exec.Config{})
	res, err := w.Run(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions > 10_000 {
		t.Fatalf("minimal-service executed %d instructions", res.Instructions)
	}
	if res.MemoryPages != 1 {
		t.Fatalf("memory pages = %d", res.MemoryPages)
	}
}

func TestMinimalServicePyMatchesWasmBehaviour(t *testing.T) {
	// Both variants of the benchmark app print the same banner.
	m, _ := Module("minimal-service")
	var wasmOut bytes.Buffer
	w := wasi.New(wasi.Config{Stdout: &wasmOut})
	s := exec.NewStore(exec.Config{})
	if _, err := w.Run(s, m); err != nil {
		t.Fatal(err)
	}
	if wasmOut.String() != "service ready\n" {
		t.Fatalf("wasm output %q", wasmOut.String())
	}
	// The Python twin is tested in the pylite package; here we only check
	// the source mentions the same banner.
	if !bytes.Contains([]byte(MinimalServicePy), []byte("service ready")) {
		t.Fatal("python variant diverged")
	}
}

// TestHandlerVariantsLeaveNothingBehind: variant names come from URL paths
// (lazy deploy), so resolving N distinct ones must not grow any package-level
// table — the fixed workloads stay the only per-name state, and a variant is
// synthesized afresh each time.
func TestHandlerVariantsLeaveNothingBehind(t *testing.T) {
	digests := map[string]bool{}
	for i := 0; i < 64; i++ {
		bin, err := Binary(HandlerVariantPrefix + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		digests[string(bin)] = true
	}
	if len(digests) != 64 {
		t.Fatalf("%d distinct binaries from 64 variants", len(digests))
	}
	if len(compiled) != len(moduleSources) {
		t.Fatalf("%d modules parked, want the %d fixed workloads", len(compiled), len(moduleSources))
	}
	a, err := Module(HandlerVariantPrefix + "1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Module(HandlerVariantPrefix + "1")
	if a == b {
		t.Fatal("variant module parked between calls")
	}
	for _, bad := range []string{HandlerVariantPrefix, HandlerVariantPrefix + "UPPER", HandlerVariantPrefix + "seventeen-chars-x"} {
		if _, err := Module(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
