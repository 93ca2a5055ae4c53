package workloads

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"wasmcontainers/internal/pylite"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/wat"
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
	// Both variants of the benchmark app print the same bytes.
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
	var pyOut bytes.Buffer
	if _, err := pylite.NewVM(&pyOut).RunSource(MinimalServicePy); err != nil {
		t.Fatal(err)
	}
	if pyOut.String() != wasmOut.String() {
		t.Fatalf("python output %q, wasm output %q", pyOut.String(), wasmOut.String())
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

// splicedVariantWAT is the reference recipe for a handler variant: the
// handler's text with the suffix as a data segment after its memory,
// assembled from scratch.
func splicedVariantWAT(suffix string) string {
	const mem = `(memory (export "memory") 1)`
	return strings.Replace(RequestHandlerWAT, mem, mem+"\n  (data (i32.const 40) \""+suffix+"\")", 1)
}

// TestHandlerVariantEncodingMatchesAssembler: a variant is a copy of the
// assembled handler, not a re-assembly, and must encode byte for byte as the
// assembled spliced text does — digests, pinned results and content-addressed
// caches all key on those bytes. Variants share the handler's backing arrays,
// so appends on two of them must not land in one slot, and mutating them must
// leave the handler's own encoding untouched.
func TestHandlerVariantEncodingMatchesAssembler(t *testing.T) {
	base, err := Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"a", "0123456789abcdef", "42", "a-b-c", "-", "sx-q1"} {
		got, err := Binary(HandlerVariantPrefix + suffix)
		if err != nil {
			t.Fatalf("%q: %v", suffix, err)
		}
		want, err := wat.CompileToBinary(splicedVariantWAT(suffix))
		if err != nil {
			t.Fatalf("%q: reference: %v", suffix, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: variant encodes to %d bytes, the assembled text to %d (differ)", suffix, len(got), len(want))
		}
	}

	var variants []*wasm.Module
	for i, suffix := range []string{"x", "y"} {
		m, err := Module(HandlerVariantPrefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name != HandlerVariantPrefix+suffix {
			t.Fatalf("variant named %q", m.Name)
		}
		m.Types = append(m.Types, wasm.FuncType{Params: make([]wasm.ValueType, i)})
		m.Functions = append(m.Functions, uint32(i))
		m.Exports = append(m.Exports, wasm.Export{Name: suffix})
		m.Codes = append(m.Codes, wasm.Code{Body: []byte{byte(i)}})
		m.Data[0] = wasm.DataSegment{Offset: wasm.I32Const(0), Data: []byte("clobbered")}
		variants = append(variants, m)
	}
	x := variants[0]
	if len(x.Types[len(x.Types)-1].Params) != 0 || x.Functions[len(x.Functions)-1] != 0 ||
		x.Exports[len(x.Exports)-1].Name != "x" || x.Codes[len(x.Codes)-1].Body[0] != 0 {
		t.Fatal("an append on one variant overwrote another's")
	}
	if now, _ := Binary("request-handler"); !bytes.Equal(now, base) {
		t.Fatal("mutating variants changed the handler's encoding")
	}
}
