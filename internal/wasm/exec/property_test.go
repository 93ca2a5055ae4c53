package exec

import (
	"errors"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"wasmcontainers/internal/wasm"
)

// binFunc builds and instantiates a (t, t) -> (t) module applying one
// operator, returning a Go closure over the interpreter.
func binFunc(t *testing.T, vt wasm.ValueType, op wasm.Opcode) func(a, b Value) (Value, error) {
	t.Helper()
	b := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).
		OpU32(wasm.OpLocalGet, 1).
		Op(op).
		End()
	out := vt
	if isComparisonOp(op) {
		out = wasm.ValueTypeI32
	}
	m := buildModule(t, singleFunc([]wasm.ValueType{vt, vt}, []wasm.ValueType{out}, nil, b))
	inst := instantiate(t, m)
	return func(a, bb Value) (Value, error) {
		res, err := inst.Call("f", a, bb)
		if err != nil {
			return 0, err
		}
		return res[0], nil
	}
}

// Property: i32 add/sub/mul match Go's wrapping arithmetic.
func TestPropertyI32Arithmetic(t *testing.T) {
	add := binFunc(t, i32, wasm.OpI32Add)
	sub := binFunc(t, i32, wasm.OpI32Sub)
	mul := binFunc(t, i32, wasm.OpI32Mul)
	f := func(a, b int32) bool {
		r1, _ := add(I32(a), I32(b))
		r2, _ := sub(I32(a), I32(b))
		r3, _ := mul(I32(a), I32(b))
		return AsI32(r1) == a+b && AsI32(r2) == a-b && AsI32(r3) == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: i32 division follows wasm semantics (truncated, trapping).
func TestPropertyI32Division(t *testing.T) {
	div := binFunc(t, i32, wasm.OpI32DivS)
	rem := binFunc(t, i32, wasm.OpI32RemS)
	f := func(a, b int32) bool {
		rd, errD := div(I32(a), I32(b))
		rr, errR := rem(I32(a), I32(b))
		if b == 0 {
			return IsTrap(errD, TrapIntegerDivideByZero) && IsTrap(errR, TrapIntegerDivideByZero)
		}
		if a == math.MinInt32 && b == -1 {
			return IsTrap(errD, TrapIntegerOverflow) && errR == nil && AsI32(rr) == 0
		}
		return errD == nil && AsI32(rd) == a/b && errR == nil && AsI32(rr) == a%b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: shifts and rotates mask the shift count by 31/63.
func TestPropertyShiftsAndRotates(t *testing.T) {
	shl := binFunc(t, i32, wasm.OpI32Shl)
	shrU := binFunc(t, i32, wasm.OpI32ShrU)
	rotl := binFunc(t, i32, wasm.OpI32Rotl)
	f := func(a uint32, s uint32) bool {
		r1, _ := shl(uint64(a), uint64(s))
		r2, _ := shrU(uint64(a), uint64(s))
		r3, _ := rotl(uint64(a), uint64(s))
		return AsU32(r1) == a<<(s&31) &&
			AsU32(r2) == a>>(s&31) &&
			AsU32(r3) == bits.RotateLeft32(a, int(s&31))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: i64 bitwise ops match Go.
func TestPropertyI64Bitwise(t *testing.T) {
	and := binFunc(t, i64t, wasm.OpI64And)
	or := binFunc(t, i64t, wasm.OpI64Or)
	xor := binFunc(t, i64t, wasm.OpI64Xor)
	f := func(a, b uint64) bool {
		r1, _ := and(a, b)
		r2, _ := or(a, b)
		r3, _ := xor(a, b)
		return r1 == a&b && r2 == a|b && r3 == a^b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: comparisons agree with Go for both signednesses.
func TestPropertyComparisons(t *testing.T) {
	ltS := binFunc(t, i32, wasm.OpI32LtS)
	gtU := binFunc(t, i32, wasm.OpI32GtU)
	f := func(a, b int32) bool {
		r1, _ := ltS(I32(a), I32(b))
		r2, _ := gtU(I32(a), I32(b))
		wantLt := uint64(0)
		if a < b {
			wantLt = 1
		}
		wantGt := uint64(0)
		if uint32(a) > uint32(b) {
			wantGt = 1
		}
		return r1 == wantLt && r2 == wantGt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: f64 add is IEEE-754 (matches Go exactly, including NaN bits
// propagating as some NaN).
func TestPropertyF64Arithmetic(t *testing.T) {
	add := binFunc(t, f64t, wasm.OpF64Add)
	f := func(a, b float64) bool {
		r, err := add(F64(a), F64(b))
		if err != nil {
			return false
		}
		want := a + b
		if math.IsNaN(want) {
			return math.IsNaN(AsF64(r))
		}
		return AsF64(r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory store-then-load round-trips any value at any in-bounds
// aligned address.
func TestPropertyMemoryRoundTrip(t *testing.T) {
	b := new(wasm.BodyBuilder)
	b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).MemArg(wasm.OpI64Store, 3, 0)
	b.OpU32(wasm.OpLocalGet, 0).MemArg(wasm.OpI64Load, 3, 0)
	b.End()
	m := singleFunc([]wasm.ValueType{i32, i64t}, []wasm.ValueType{i64t}, nil, b)
	m.Memories = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}}
	inst := instantiate(t, buildModule(t, m))
	f := func(addr uint16, v uint64) bool {
		a := uint32(addr) % (65536 - 8)
		res, err := inst.Call("f", uint64(a), v)
		return err == nil && res[0] == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sign-extension operators match Go's conversions.
func TestPropertySignExtension(t *testing.T) {
	ext8 := unaryFunc(t, i32, wasm.OpI32Extend8S)
	ext16 := unaryFunc(t, i32, wasm.OpI32Extend16S)
	f := func(v int32) bool {
		r1, _ := ext8(I32(v))
		r2, _ := ext16(I32(v))
		return AsI32(r1) == int32(int8(v)) && AsI32(r2) == int32(int16(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: clz/ctz/popcnt match math/bits.
func TestPropertyBitCounting(t *testing.T) {
	clz := unaryFunc(t, i32, wasm.OpI32Clz)
	ctz := unaryFunc(t, i32, wasm.OpI32Ctz)
	pop := unaryFunc(t, i32, wasm.OpI32Popcnt)
	f := func(v uint32) bool {
		r1, _ := clz(uint64(v))
		r2, _ := ctz(uint64(v))
		r3, _ := pop(uint64(v))
		return AsU32(r1) == uint32(bits.LeadingZeros32(v)) &&
			AsU32(r2) == uint32(bits.TrailingZeros32(v)) &&
			AsU32(r3) == uint32(bits.OnesCount32(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: trunc_sat never traps and clamps to integer bounds.
func TestPropertyTruncSatTotal(t *testing.T) {
	b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Misc(wasm.MiscI64TruncSatF64S).End()
	m := buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i64t}, nil, b))
	inst := instantiate(t, m)
	f := func(v float64) bool {
		res, err := inst.Call("f", F64(v))
		if err != nil {
			return false
		}
		got := AsI64(res[0])
		switch {
		case math.IsNaN(v):
			return got == 0
		case v <= math.MinInt64:
			return got == math.MinInt64
		case v >= math.MaxInt64:
			return got == math.MaxInt64
		default:
			return got == int64(math.Trunc(v))
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func unaryFunc(t *testing.T, vt wasm.ValueType, op wasm.Opcode) func(Value) (Value, error) {
	t.Helper()
	b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(op).End()
	m := buildModule(t, singleFunc([]wasm.ValueType{vt}, []wasm.ValueType{vt}, nil, b))
	inst := instantiate(t, m)
	return func(v Value) (Value, error) {
		res, err := inst.Call("f", v)
		if err != nil {
			return 0, err
		}
		return res[0], nil
	}
}

// Cross-module linking: module B imports a function exported by module A.
func TestCrossModuleLinking(t *testing.T) {
	s := NewStore(Config{})
	// Module A: exports inc(x) = x + 1.
	inc := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).I32Const(1).Op(wasm.OpI32Add).End()
	a := &wasm.Module{
		Types:     []wasm.FuncType{{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}}},
		Functions: []uint32{0},
		Codes:     []wasm.Code{{Body: inc.Bytes()}},
		Exports:   []wasm.Export{{Name: "inc", Kind: wasm.ExternalFunc, Index: 0}},
	}
	if err := wasm.Validate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate(a, "lib"); err != nil {
		t.Fatal(err)
	}
	// Module B: imports lib.inc and calls it twice.
	body := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpCall, 0).OpU32(wasm.OpCall, 0).End()
	bMod := &wasm.Module{
		Types:     []wasm.FuncType{{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}}},
		Imports:   []wasm.Import{{Module: "lib", Name: "inc", Kind: wasm.ExternalFunc, Func: 0}},
		Functions: []uint32{0},
		Codes:     []wasm.Code{{Body: body.Bytes()}},
		Exports:   []wasm.Export{{Name: "inc2", Kind: wasm.ExternalFunc, Index: 1}},
	}
	if err := wasm.Validate(bMod); err != nil {
		t.Fatal(err)
	}
	instB, err := s.Instantiate(bMod, "app")
	if err != nil {
		t.Fatal(err)
	}
	res, err := instB.Call("inc2", I32(40))
	if err != nil {
		t.Fatal(err)
	}
	if got := AsI32(res[0]); got != 42 {
		t.Fatalf("inc2(40) = %d, want 42", got)
	}
}

// Unknown imports fail instantiation with a helpful error.
func TestUnknownImportError(t *testing.T) {
	s := NewStore(Config{})
	m := &wasm.Module{
		Types:   []wasm.FuncType{{}},
		Imports: []wasm.Import{{Module: "ghost", Name: "fn", Kind: wasm.ExternalFunc, Func: 0}},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	_, err := s.Instantiate(m, "")
	if err == nil {
		t.Fatal("expected link error")
	}
}

// A function resolved through SetFuncLookup links exactly like one registered
// with AddFunc: same type, a host binding, same unknown-import error; a
// name AddFunc registered is never asked of the lookup.
func TestHostFuncLookupLinksLikeAddFunc(t *testing.T) {
	double := HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}},
		Fn: func(ctx *HostContext, args []Value) ([]Value, error) {
			return []Value{I32(AsI32(args[0]) * 2)}, nil
		},
	}
	eager, lazy := NewStore(Config{}), NewStore(Config{})
	eager.NewHostModule("env").AddFunc("double", double)
	asked := 0
	lazy.NewHostModule("env").AddFunc("listed", double).SetFuncLookup(func(name string) *HostFunc {
		asked++
		if name != "double" {
			return nil
		}
		return &double
	})
	imp := wasm.Import{Module: "env", Name: "double", Kind: wasm.ExternalFunc}
	fe, err := eager.resolveFunc(imp)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := lazy.resolveFunc(imp)
	if err != nil {
		t.Fatal(err)
	}
	if fe.host == nil || fe.numParams != fl.numParams ||
		len(fl.typ.Params) != 1 || len(fl.typ.Results) != 1 || fl.host == nil {
		t.Fatalf("lookup-bound function %+v differs from AddFunc-bound %+v", fl, fe)
	}
	if _, err := lazy.resolveFunc(wasm.Import{Module: "env", Name: "listed", Kind: wasm.ExternalFunc}); err != nil || asked != 1 {
		t.Fatalf("registered name: err %v, lookup asked %d times (want once, for double)", err, asked)
	}
	imp.Name = "ghost"
	_, ee := eager.resolveFunc(imp)
	_, el := lazy.resolveFunc(imp)
	if !errors.Is(ee, ErrUnknownImport) || !errors.Is(el, ErrUnknownImport) || ee.Error() != el.Error() ||
		el.Error() != "exec: unknown import: env.ghost" {
		t.Fatalf("unknown import: eager %v, lazy %v", ee, el)
	}
}

// Element segments out of bounds fail instantiation.
func TestElementSegmentBounds(t *testing.T) {
	s := NewStore(Config{})
	body := new(wasm.BodyBuilder).End()
	m := &wasm.Module{
		Types:     []wasm.FuncType{{}},
		Functions: []uint32{0},
		Tables:    []wasm.TableType{{ElemType: wasm.ValueTypeFuncref, Limits: wasm.Limits{Min: 1}}},
		Elements:  []wasm.ElementSegment{{Offset: wasm.I32Const(5), Indices: []uint32{0}}},
		Codes:     []wasm.Code{{Body: body.Bytes()}},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate(m, ""); err == nil {
		t.Fatal("out-of-bounds element segment accepted")
	}
}

// Data segments out of bounds fail instantiation.
func TestDataSegmentBounds(t *testing.T) {
	s := NewStore(Config{})
	m := &wasm.Module{
		Memories: []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}},
		Data:     []wasm.DataSegment{{Offset: wasm.I32Const(wasm.PageSize - 1), Data: []byte("xy")}},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate(m, ""); err == nil {
		t.Fatal("out-of-bounds data segment accepted")
	}
}

// isComparisonOp reports whether op produces an i32 boolean.
func isComparisonOp(op wasm.Opcode) bool {
	return (op >= wasm.OpI32Eq && op <= wasm.OpF64Ge) || op == wasm.OpI32Eqz || op == wasm.OpI64Eqz
}
