package wat

import (
	"fmt"
	"testing"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
)

func run(t *testing.T, src, fn string, args ...exec.Value) []exec.Value {
	t.Helper()
	m, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s := exec.NewStore(exec.Config{})
	inst, err := s.Instantiate(m, "t")
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	res, err := inst.Call(fn, args...)
	if err != nil {
		t.Fatalf("Call %s: %v", fn, err)
	}
	return res
}

func TestFlatAdd(t *testing.T) {
	src := `
(module
  (func $add (export "add") (param $a i32) (param $b i32) (result i32)
    local.get $a
    local.get $b
    i32.add))
`
	res := run(t, src, "add", exec.I32(20), exec.I32(22))
	if got := exec.AsI32(res[0]); got != 42 {
		t.Fatalf("add = %d, want 42", got)
	}
}

func TestFoldedExpressions(t *testing.T) {
	src := `
(module
  (func (export "calc") (param i32 i32) (result i32)
    (i32.mul (i32.add (local.get 0) (i32.const 1)) (local.get 1))))
`
	res := run(t, src, "calc", exec.I32(5), exec.I32(7))
	if got := exec.AsI32(res[0]); got != 42 {
		t.Fatalf("calc = %d, want 42", got)
	}
}

func TestFlatControlFlow(t *testing.T) {
	// Sum 1..n with a flat loop.
	src := `
(module
  (func (export "sum") (param $n i32) (result i32) (local $acc i32)
    block $exit
      loop $top
        local.get $n
        i32.eqz
        br_if $exit
        local.get $acc
        local.get $n
        i32.add
        local.set $acc
        local.get $n
        i32.const 1
        i32.sub
        local.set $n
        br $top
      end
    end
    local.get $acc))
`
	res := run(t, src, "sum", exec.I32(100))
	if got := exec.AsI32(res[0]); got != 5050 {
		t.Fatalf("sum(100) = %d, want 5050", got)
	}
}

func TestFoldedIfThenElse(t *testing.T) {
	src := `
(module
  (func (export "max") (param i32 i32) (result i32)
    (if (result i32) (i32.gt_s (local.get 0) (local.get 1))
      (then (local.get 0))
      (else (local.get 1)))))
`
	res := run(t, src, "max", exec.I32(3), exec.I32(9))
	if got := exec.AsI32(res[0]); got != 9 {
		t.Fatalf("max(3,9) = %d, want 9", got)
	}
	res = run(t, src, "max", exec.I32(11), exec.I32(9))
	if got := exec.AsI32(res[0]); got != 11 {
		t.Fatalf("max(11,9) = %d, want 11", got)
	}
}

func TestFlatIfElse(t *testing.T) {
	src := `
(module
  (func (export "sign") (param i32) (result i32)
    local.get 0
    i32.const 0
    i32.lt_s
    if (result i32)
      i32.const -1
    else
      local.get 0
      i32.const 0
      i32.gt_s
      if (result i32)
        i32.const 1
      else
        i32.const 0
      end
    end))
`
	cases := map[int32]int32{-5: -1, 0: 0, 17: 1}
	for in, want := range cases {
		res := run(t, src, "sign", exec.I32(in))
		if got := exec.AsI32(res[0]); got != want {
			t.Fatalf("sign(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMemoryAndData(t *testing.T) {
	src := `
(module
  (memory (export "memory") 1)
  (data (i32.const 8) "\de\ad\be\ef")
  (func (export "peek") (param i32) (result i32)
    local.get 0
    i32.load8_u))
`
	res := run(t, src, "peek", exec.I32(8))
	if got := exec.AsU32(res[0]); got != 0xde {
		t.Fatalf("mem[8] = %#x, want 0xde", got)
	}
}

func TestMemargOffsets(t *testing.T) {
	src := `
(module
  (memory 1)
  (func (export "roundtrip") (param i32 i64) (result i64)
    local.get 0
    local.get 1
    i64.store offset=16
    local.get 0
    i64.load offset=16 align=8))
`
	res := run(t, src, "roundtrip", exec.I32(100), exec.I64(-12345678901234))
	if got := exec.AsI64(res[0]); got != -12345678901234 {
		t.Fatalf("roundtrip = %d", got)
	}
}

func TestGlobalsAndExports(t *testing.T) {
	src := `
(module
  (global $counter (export "counter") (mut i32) (i32.const 100))
  (func (export "bump") (result i32)
    global.get $counter
    i32.const 1
    i32.add
    global.set $counter
    global.get $counter))
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s := exec.NewStore(exec.Config{})
	inst, err := s.Instantiate(m, "g")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("bump")
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res[0]); got != 101 {
		t.Fatalf("bump = %d, want 101", got)
	}
	if g := inst.GlobalByName("counter"); g == nil || exec.AsI32(g.Get()) != 101 {
		t.Fatalf("exported global not updated")
	}
}

func TestImportsAndHostCalls(t *testing.T) {
	src := `
(module
  (import "env" "mul3" (func $mul3 (param i32) (result i32)))
  (func (export "f") (param i32) (result i32)
    (call $mul3 (local.get 0))))
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s := exec.NewStore(exec.Config{})
	s.NewHostModule("env").AddFunc("mul3", exec.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValueType{wasm.ValueTypeI32}, Results: []wasm.ValueType{wasm.ValueTypeI32}},
		Fn: func(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
			return []exec.Value{exec.I32(exec.AsI32(args[0]) * 3)}, nil
		},
	})
	inst, err := s.Instantiate(m, "t")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("f", exec.I32(14))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res[0]); got != 42 {
		t.Fatalf("f(14) = %d, want 42", got)
	}
}

func TestTableElemCallIndirect(t *testing.T) {
	src := `
(module
  (type $binop (func (param i32 i32) (result i32)))
  (table 4 funcref)
  (elem (i32.const 0) $add $sub)
  (func $add (type $binop) local.get 0 local.get 1 i32.add)
  (func $sub (type $binop) local.get 0 local.get 1 i32.sub)
  (func (export "dispatch") (param i32 i32 i32) (result i32)
    local.get 1
    local.get 2
    local.get 0
    call_indirect (type $binop)))
`
	res := run(t, src, "dispatch", exec.I32(0), exec.I32(30), exec.I32(12))
	if got := exec.AsI32(res[0]); got != 42 {
		t.Fatalf("dispatch add = %d, want 42", got)
	}
	res = run(t, src, "dispatch", exec.I32(1), exec.I32(50), exec.I32(8))
	if got := exec.AsI32(res[0]); got != 42 {
		t.Fatalf("dispatch sub = %d, want 42", got)
	}
}

func TestStartSection(t *testing.T) {
	src := `
(module
  (global $g (mut i32) (i32.const 0))
  (func $init global.set $g (i32.const 0) drop i32.const 41 global.set $g)
  (func (export "get") (result i32) global.get $g i32.const 1 i32.add)
  (start $init))
`
	// Note: the body above exercises odd-but-legal flat sequencing.
	src = `
(module
  (global $g (mut i32) (i32.const 0))
  (func $init (i32.const 41) (global.set $g))
  (func (export "get") (result i32) global.get $g i32.const 1 i32.add)
  (start $init))
`
	res := run(t, src, "get")
	if got := exec.AsI32(res[0]); got != 42 {
		t.Fatalf("get = %d, want 42", got)
	}
}

func TestBrTableWat(t *testing.T) {
	src := `
(module
  (func (export "classify") (param i32) (result i32)
    block $default
      block $two
        block $one
          block $zero
            local.get 0
            br_table $zero $one $two $default
          end
          i32.const 1000
          return
        end
        i32.const 2000
        return
      end
      i32.const 3000
      return
    end
    i32.const 9999))
`
	cases := map[int32]int32{0: 1000, 1: 2000, 2: 3000, 3: 9999, 77: 9999}
	for in, want := range cases {
		res := run(t, src, "classify", exec.I32(in))
		if got := exec.AsI32(res[0]); got != want {
			t.Fatalf("classify(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
;; line comment
(module
  (; block
     comment (; nested ;) ;)
  (func (export "f") (result i32)
    i32.const 7 ;; seven
  ))
`
	res := run(t, src, "f")
	if got := exec.AsI32(res[0]); got != 7 {
		t.Fatalf("f = %d, want 7", got)
	}
}

func TestFloatLiterals(t *testing.T) {
	src := `
(module
  (func (export "area") (param f64) (result f64)
    (f64.mul (f64.mul (local.get 0) (local.get 0)) (f64.const 3.14159265))))
`
	res := run(t, src, "area", exec.F64(2))
	got := exec.AsF64(res[0])
	if got < 12.56 || got > 12.57 {
		t.Fatalf("area(2) = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown instr", `(module (func (export "f") bogus.op))`},
		{"unknown local", `(module (func (export "f") local.get $missing drop))`},
		{"unknown label", `(module (func (export "f") br $nope))`},
		{"unbalanced", `(module (func (export "f")`},
		{"type mismatch", `(module (func (export "f") (result i32) i64.const 1))`},
		{"unknown func", `(module (func (export "f") call $ghost))`},
		{"duplicate export", `(module (func (export "a")) (func (export "a")))`},
		{"duplicate export, two kinds", `(module(memory(export"")0)(func(export"")))`},
		{"duplicate export, explicit", `(module (func $f) (export "a" (func $f)) (export "a" (func $f)))`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

func TestEncodeDecodeRoundtripFromWat(t *testing.T) {
	src := `
(module
  (memory 1 4)
  (global $g i64 (i64.const -5))
  (data (i32.const 0) "xyz")
  (func (export "f") (param i64) (result i64)
    local.get 0
    global.get $g
    i64.add))
`
	bin, err := CompileToBinary(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	s := exec.NewStore(exec.Config{})
	inst, err := s.Instantiate(m, "rt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("f", exec.I64(47))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI64(res[0]); got != 42 {
		t.Fatalf("f(47) = %d, want 42", got)
	}
}

func TestAllLoadStoreWidths(t *testing.T) {
	// Each (store, load, value, expect) case exercises one access width and
	// sign behaviour end to end through WAT + interpreter.
	cases := []struct {
		store, load string
		val, want   int64
		is64        bool
	}{
		{"i32.store8", "i32.load8_u", 0x1FF, 0xFF, false},
		{"i32.store8", "i32.load8_s", 0x80, -128, false},
		{"i32.store16", "i32.load16_u", 0x1FFFF, 0xFFFF, false},
		{"i32.store16", "i32.load16_s", 0x8000, -32768, false},
		{"i32.store", "i32.load", -1234567, -1234567, false},
		{"i64.store8", "i64.load8_u", 0x1FF, 0xFF, true},
		{"i64.store8", "i64.load8_s", 0x80, -128, true},
		{"i64.store16", "i64.load16_u", 0x1FFFF, 0xFFFF, true},
		{"i64.store16", "i64.load16_s", 0x8000, -32768, true},
		{"i64.store32", "i64.load32_u", 0x1FFFFFFFF, 0xFFFFFFFF, true},
		{"i64.store32", "i64.load32_s", 0x80000000, -2147483648, true},
		{"i64.store", "i64.load", -98765432109876, -98765432109876, true},
	}
	for _, c := range cases {
		ty := "i32"
		if c.is64 {
			ty = "i64"
		}
		src := fmt.Sprintf(`
(module
  (memory 1)
  (func (export "rt") (param %s) (result %s)
    i32.const 64
    local.get 0
    %s
    i32.const 64
    %s))
`, ty, ty, c.store, c.load)
		m, err := Compile(src)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.store, c.load, err)
		}
		s := exec.NewStore(exec.Config{})
		inst, err := s.Instantiate(m, "w")
		if err != nil {
			t.Fatal(err)
		}
		var arg exec.Value
		if c.is64 {
			arg = exec.I64(c.val)
		} else {
			arg = exec.I32(int32(c.val))
		}
		res, err := inst.Call("rt", arg)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.store, c.load, err)
		}
		var got int64
		if c.is64 {
			got = exec.AsI64(res[0])
		} else {
			got = int64(exec.AsI32(res[0]))
		}
		if got != c.want {
			t.Errorf("%s/%s(%#x) = %d, want %d", c.store, c.load, c.val, got, c.want)
		}
	}
}

func TestAssemblerNeverPanicsOnGarbage(t *testing.T) {
	inputs := []string{
		"", "(", ")", "(module", "((((", "(module))",
		`(module (func (export "f") (block (block (block)))))`,
		"(module (func br_table))",
		`(module (data (i32.const 0) "\zz"))`,
		"(module (func (param $p) ))",
		"(module (global i32))",
		"(module (table))",
		"(module (elem (i32.const 0) $nope))",
		`(module (import "a" "b" (what)))`,
		"(module (func local.get))",
		"(module (type $t (func (param bogus))))",
		"(module (start $missing))",
		"(module (func i32.const))",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Compile(src)
		}()
	}
}

func TestCollectErrorPaths(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"bad import shape", `(module (import "only-one" (func)))`},
		{"bad import kind", `(module (import "a" "b" (event)))`},
		{"type without func", `(module (type $t (notfunc)))`},
		{"export bad kind", `(module (export "x" (event 0)))`},
		{"export shape", `(module (export "x"))`},
		{"global missing init", `(module (global $g (mut i32)))`},
		{"data non-string", `(module (memory 1) (data (i32.const 0) 42))`},
		{"elem bad offset", `(module (table 1 funcref) (func $f) (elem (f32.const 1) $f))`},
		{"limits bad", `(module (memory abc))`},
		{"const expr unsupported", `(module (global $g i32 (i32.add (i32.const 1) (i32.const 2))))`},
		{"unknown field", `(module (wibble))`},
		{"sig mismatch with type use", `(module (type $t (func (param i32))) (func (type $t) (param i64)))`},
		{"unknown type ref", `(module (func (type $missing)))`},
		{"elem unknown func", `(module (table 1 funcref) (elem (i32.const 0) $ghost))`},
		{"start unknown", `(module (start $ghost))`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: compiled successfully", c.name)
		}
	}
}

func TestInlineImportlikeForms(t *testing.T) {
	// Imports with explicit (type $t) references.
	src := `
(module
  (type $cb (func (param i32) (result i32)))
  (import "env" "h" (func $h (type $cb)))
  (func (export "call_h") (param i32) (result i32)
    (call $h (local.get 0))))
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Imports) != 1 || m.Imports[0].Func != 0 {
		t.Fatalf("import = %+v", m.Imports)
	}
	// Memory, table, and global imports.
	src2 := `
(module
  (import "env" "mem" (memory 1 4))
  (import "env" "tbl" (table 2 funcref))
  (import "env" "g" (global $g i32))
  (func (export "f") (result i32) (global.get $g)))
`
	m2, err := Compile(src2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Imports) != 3 {
		t.Fatalf("imports = %d", len(m2.Imports))
	}
	if m2.Imports[0].Memory.Limits.Max != 4 || !m2.Imports[0].Memory.Limits.HasMax {
		t.Fatalf("memory limits = %+v", m2.Imports[0].Memory)
	}
}

func TestWATEmitsNameSection(t *testing.T) {
	src := `
(module
  (func $compute (export "compute") (result i32) (i32.const 1))
  (func $helper (result i32) (i32.const 2)))
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	nm := wasm.DecodeNameSection(m)
	if nm.FuncNames[0] != "compute" || nm.FuncNames[1] != "helper" {
		t.Fatalf("func names = %v", nm.FuncNames)
	}
	// Round-trip through binary keeps the names.
	decoded, err := wasm.Decode(wasm.Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if wasm.DecodeNameSection(decoded).FuncNames[0] != "compute" {
		t.Fatal("names lost in binary round-trip")
	}
}
