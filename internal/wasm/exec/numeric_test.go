package exec

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"wasmcontainers/internal/wasm"
)

// unaryCase drives one unary instruction with raw-bit inputs/outputs.
type unaryCase struct {
	op       wasm.Opcode
	in       wasm.ValueType
	out      wasm.ValueType
	arg      Value
	want     Value
	wantNaN  bool // compare as NaN instead of bit-equal
	is32Term bool // want is f32 NaN
}

func runUnaryCases(t *testing.T, cases []unaryCase) {
	t.Helper()
	for _, c := range cases {
		b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(c.op).End()
		m := buildModule(t, singleFunc([]wasm.ValueType{c.in}, []wasm.ValueType{c.out}, nil, b))
		inst := instantiate(t, m)
		res, err := inst.Call("f", c.arg)
		if err != nil {
			t.Fatalf("%s(%#x): %v", wasm.OpcodeName(c.op), c.arg, err)
		}
		got := res[0]
		if c.wantNaN {
			var isNaN bool
			if c.is32Term {
				isNaN = math.IsNaN(float64(AsF32(got)))
			} else {
				isNaN = math.IsNaN(AsF64(got))
			}
			if !isNaN {
				t.Errorf("%s(%#x) = %#x, want NaN", wasm.OpcodeName(c.op), c.arg, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s(%#x) = %#x, want %#x", wasm.OpcodeName(c.op), c.arg, got, c.want)
		}
	}
}

func TestF32Arithmetic(t *testing.T) {
	runUnaryCases(t, []unaryCase{
		{op: wasm.OpF32Abs, in: f32t, out: f32t, arg: F32(-2.5), want: F32(2.5)},
		{op: wasm.OpF32Neg, in: f32t, out: f32t, arg: F32(2.5), want: F32(-2.5)},
		{op: wasm.OpF32Ceil, in: f32t, out: f32t, arg: F32(1.1), want: F32(2)},
		{op: wasm.OpF32Floor, in: f32t, out: f32t, arg: F32(-1.1), want: F32(-2)},
		{op: wasm.OpF32Trunc, in: f32t, out: f32t, arg: F32(-1.9), want: F32(-1)},
		{op: wasm.OpF32Nearest, in: f32t, out: f32t, arg: F32(2.5), want: F32(2)}, // round-to-even
		{op: wasm.OpF32Nearest, in: f32t, out: f32t, arg: F32(3.5), want: F32(4)},
		{op: wasm.OpF32Sqrt, in: f32t, out: f32t, arg: F32(9), want: F32(3)},
		{op: wasm.OpF32Sqrt, in: f32t, out: f32t, arg: F32(-1), wantNaN: true, is32Term: true},
	})
}

func TestF64Rounding(t *testing.T) {
	runUnaryCases(t, []unaryCase{
		{op: wasm.OpF64Ceil, in: f64t, out: f64t, arg: F64(-0.5), want: F64(math.Copysign(0, -1))},
		{op: wasm.OpF64Nearest, in: f64t, out: f64t, arg: F64(0.5), want: F64(0)},
		{op: wasm.OpF64Nearest, in: f64t, out: f64t, arg: F64(1.5), want: F64(2)},
		{op: wasm.OpF64Trunc, in: f64t, out: f64t, arg: F64(1e100), want: F64(1e100)},
		{op: wasm.OpF64Sqrt, in: f64t, out: f64t, arg: F64(-4), wantNaN: true},
	})
}

func TestWrapAndExtend(t *testing.T) {
	runUnaryCases(t, []unaryCase{
		{op: wasm.OpI32WrapI64, in: i64t, out: i32, arg: I64(0x1_0000_0001), want: I32(1)},
		{op: wasm.OpI32WrapI64, in: i64t, out: i32, arg: I64(-1), want: I32(-1)},
		{op: wasm.OpI64ExtendI32S, in: i32, out: i64t, arg: I32(-5), want: I64(-5)},
		{op: wasm.OpI64ExtendI32U, in: i32, out: i64t, arg: I32(-5), want: I64(0xFFFFFFFB)},
		{op: wasm.OpI64Extend32S, in: i64t, out: i64t, arg: I64(0x80000000), want: I64(-2147483648)},
	})
}

func TestReinterpret(t *testing.T) {
	runUnaryCases(t, []unaryCase{
		{op: wasm.OpI32ReinterpretF32, in: f32t, out: i32, arg: F32(1.0), want: I32(0x3f800000)},
		{op: wasm.OpF32ReinterpretI32, in: i32, out: f32t, arg: I32(0x3f800000), want: F32(1.0)},
		{op: wasm.OpI64ReinterpretF64, in: f64t, out: i64t, arg: F64(1.0), want: I64(0x3ff0000000000000)},
		{op: wasm.OpF64ReinterpretI64, in: i64t, out: f64t, arg: I64(0x3ff0000000000000), want: F64(1.0)},
	})
}

func TestConvertIntToFloat(t *testing.T) {
	runUnaryCases(t, []unaryCase{
		{op: wasm.OpF64ConvertI32S, in: i32, out: f64t, arg: I32(-7), want: F64(-7)},
		{op: wasm.OpF64ConvertI32U, in: i32, out: f64t, arg: I32(-1), want: F64(4294967295)},
		{op: wasm.OpF32ConvertI64S, in: i64t, out: f32t, arg: I64(1 << 40), want: F32(float32(1 << 40))},
		{op: wasm.OpF64ConvertI64U, in: i64t, out: f64t, arg: I64(-1), want: F64(18446744073709551615.0)},
		{op: wasm.OpF32DemoteF64, in: f64t, out: f32t, arg: F64(1.5), want: F32(1.5)},
		{op: wasm.OpF64PromoteF32, in: f32t, out: f64t, arg: F32(1.5), want: F64(1.5)},
	})
}

func TestF32BinaryOps(t *testing.T) {
	b := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(wasm.OpF32Max).End()
	m := buildModule(t, singleFunc([]wasm.ValueType{f32t, f32t}, []wasm.ValueType{f32t}, nil, b))
	inst := instantiate(t, m)
	res, _ := inst.Call("f", F32(1), F32(2))
	if AsF32(res[0]) != 2 {
		t.Fatalf("max(1,2) = %v", AsF32(res[0]))
	}
	// max(-0, +0) is +0.
	res, _ = inst.Call("f", F32(float32(math.Copysign(0, -1))), F32(0))
	if math.Signbit(float64(AsF32(res[0]))) {
		t.Fatal("max(-0, +0) returned -0")
	}
	// NaN propagates.
	res, _ = inst.Call("f", F32(float32(math.NaN())), F32(1))
	if !math.IsNaN(float64(AsF32(res[0]))) {
		t.Fatal("max(NaN, 1) not NaN")
	}

	cs := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(wasm.OpF32Copysign).End()
	m2 := buildModule(t, singleFunc([]wasm.ValueType{f32t, f32t}, []wasm.ValueType{f32t}, nil, cs))
	inst2 := instantiate(t, m2)
	res, _ = inst2.Call("f", F32(3), F32(-1))
	if AsF32(res[0]) != -3 {
		t.Fatalf("copysign(3,-1) = %v", AsF32(res[0]))
	}
}

func TestI64TruncEdges(t *testing.T) {
	b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI64TruncF64S).End()
	m := buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i64t}, nil, b))
	inst := instantiate(t, m)
	// -2^63 is exactly representable and valid.
	res, err := inst.Call("f", F64(-9223372036854775808.0))
	if err != nil {
		t.Fatal(err)
	}
	if AsI64(res[0]) != math.MinInt64 {
		t.Fatalf("trunc(-2^63) = %d", AsI64(res[0]))
	}
	// 2^63 overflows.
	if _, err := inst.Call("f", F64(9223372036854775808.0)); !IsTrap(err, TrapIntegerOverflow) {
		t.Fatalf("trunc(2^63): %v", err)
	}
	// Infinity overflows; NaN is invalid.
	if _, err := inst.Call("f", F64(math.Inf(1))); !IsTrap(err, TrapIntegerOverflow) {
		t.Fatalf("trunc(+inf): %v", err)
	}
	if _, err := inst.Call("f", F64(math.NaN())); !IsTrap(err, TrapInvalidConversion) {
		t.Fatalf("trunc(NaN): %v", err)
	}
}

func TestI64UnsignedDivRem(t *testing.T) {
	div := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(wasm.OpI64DivU).End()
	m := buildModule(t, singleFunc([]wasm.ValueType{i64t, i64t}, []wasm.ValueType{i64t}, nil, div))
	inst := instantiate(t, m)
	// -1 as u64 is 2^64-1.
	res, err := inst.Call("f", I64(-1), I64(2))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != (math.MaxUint64 / 2) {
		t.Fatalf("u64(-1)/2 = %d", res[0])
	}
	if _, err := inst.Call("f", I64(5), I64(0)); !IsTrap(err, TrapIntegerDivideByZero) {
		t.Fatalf("div by zero: %v", err)
	}
	// MinInt64 / -1 does NOT trap for unsigned division.
	if _, err := inst.Call("f", I64(math.MinInt64), I64(-1)); err != nil {
		t.Fatalf("unsigned MinInt64/-1 trapped: %v", err)
	}
}

func TestLocalTeeSemantics(t *testing.T) {
	// tee stores and keeps the value on the stack.
	b := new(wasm.BodyBuilder)
	b.OpU32(wasm.OpLocalGet, 0)
	b.OpU32(wasm.OpLocalTee, 1) // local1 = arg, value stays
	b.OpU32(wasm.OpLocalGet, 1)
	b.Op(wasm.OpI32Add) // arg + local1 = 2*arg
	b.End()
	m := buildModule(t, singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, []wasm.ValueType{i32}, b))
	inst := instantiate(t, m)
	res, err := inst.Call("f", I32(21))
	if err != nil {
		t.Fatal(err)
	}
	if AsI32(res[0]) != 42 {
		t.Fatalf("tee result = %d", AsI32(res[0]))
	}
}

func TestIndirectCallTypeMismatchTrap(t *testing.T) {
	// Table holds a () -> i32 function; call it as (i32) -> i32.
	f0 := new(wasm.BodyBuilder).I32Const(1).End()
	main := new(wasm.BodyBuilder).
		I32Const(5). // argument
		I32Const(0). // table index
		CallIndirect(1).
		End()
	m := &wasm.Module{
		Types: []wasm.FuncType{
			{Results: []wasm.ValueType{i32}},
			{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}},
		},
		Functions: []uint32{0, 1},
		Tables:    []wasm.TableType{{ElemType: wasm.ValueTypeFuncref, Limits: wasm.Limits{Min: 1}}},
		Elements:  []wasm.ElementSegment{{Offset: wasm.I32Const(0), Indices: []uint32{0}}},
		Codes: []wasm.Code{
			{Body: f0.Bytes()},
			{Body: main.Bytes()},
		},
		Exports: []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 1}},
	}
	inst := instantiate(t, buildModule(t, m))
	if _, err := inst.Call("f", I32(0)); !IsTrap(err, TrapIndirectCallTypeMismatch) {
		t.Fatalf("expected type-mismatch trap, got %v", err)
	}
}

// TestOperatorsAgainstGo checks operators that no other exec test checked
// against an independent reference: each runs as a one-instruction function
// on a tier pair (tier 0 and tier 1 must agree), and the result or trap must
// equal what Go's math and math/bits give, written from the spec's numeric
// definitions rather than from interp.go.
func TestOperatorsAgainstGo(t *testing.T) {
	const signBit = 1 << 63
	cases := []struct {
		op      wasm.Opcode
		in, out wasm.ValueType
		args    []Value
		// ref returns the expected result, or the trap when trap is set.
		ref func(x Value) (want Value, trap TrapCode, trapped bool)
		nan bool // a NaN result may be any NaN
	}{
		{
			op: wasm.OpI32TruncF32S, in: f32t, out: i32,
			args: []Value{F32(0), F32(float32(math.Copysign(0, -1))), F32(1.9), F32(-1.9),
				F32(2147483520), F32(-2147483648), F32(2147483648), F32(-2147483904),
				F32(math.SmallestNonzeroFloat32), F32(float32(math.Inf(1))), F32(float32(math.Inf(-1))),
				0x7fc00000, 0xffa00001},
			ref: func(x Value) (Value, TrapCode, bool) {
				f := float64(AsF32(x))
				if math.IsNaN(f) {
					return 0, TrapInvalidConversion, true
				}
				if tr := math.Trunc(f); tr >= -(1<<31) && tr < 1<<31 {
					return I32(int32(tr)), 0, false
				}
				return 0, TrapIntegerOverflow, true
			},
		},
		{
			op: wasm.OpF32ConvertI64U, in: i64t, out: f32t,
			// 2^24+1 and 2^24+3 are ties, and 2^63+2^39+1 rounds up
			// directly but to even through a float64.
			args: []Value{0, 1, 0xffffff, 0x1000001, 0x1000003, 1 << 63,
				0x8000008000000001, math.MaxUint64, math.MaxInt64},
			ref: func(x Value) (Value, TrapCode, bool) { return F32(float32(x)), 0, false },
		},
		{
			op: wasm.OpI64Popcnt, in: i64t, out: i64t,
			args: []Value{0, 1, math.MaxUint64, signBit, 0x5555555555555555, 0x0123456789abcdef, math.MaxUint32},
			ref:  func(x Value) (Value, TrapCode, bool) { return Value(bits.OnesCount64(x)), 0, false },
		},
		{
			op: wasm.OpF64Floor, in: f64t, out: f64t, nan: true,
			args: []Value{F64(math.Copysign(0, -1)), F64(0.5), F64(-0.5), F64(-1.5), F64(1e300), F64(-1e-300),
				F64(math.SmallestNonzeroFloat64), F64(4503599627370495.5), F64(math.Inf(1)), F64(math.Inf(-1)),
				F64(math.NaN())},
			ref: func(x Value) (Value, TrapCode, bool) { return F64(math.Floor(AsF64(x))), 0, false },
		},
		{
			op: wasm.OpF64Neg, in: f64t, out: f64t,
			// neg flips the sign bit of any input, a NaN's payload kept.
			args: []Value{F64(0), F64(math.Copysign(0, -1)), F64(1.5), F64(math.Inf(-1)),
				0x7ff8000000000001, 0xfff0000000000001},
			ref: func(x Value) (Value, TrapCode, bool) { return x ^ signBit, 0, false },
		},
	}
	for _, c := range cases {
		name := wasm.OpcodeName(c.op)
		b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(c.op).End()
		m := buildModule(t, singleFunc([]wasm.ValueType{c.in}, []wasm.ValueType{c.out}, nil, b))
		p := newTierPair(t, m, Config{}, nil)
		for _, x := range c.args {
			res, err := p.call("f", x)
			want, code, trapped := c.ref(x)
			var tr *Trap
			switch {
			case trapped:
				if !errors.As(err, &tr) || tr.Code != code {
					t.Errorf("%s(%#x): got %v, %v; want trap %q", name, x, res, err, trapMessages[code])
				}
			case err != nil:
				t.Errorf("%s(%#x): %v, want %#x", name, x, err, want)
			case c.nan && math.IsNaN(AsF64(want)):
				if !math.IsNaN(AsF64(res[0])) {
					t.Errorf("%s(%#x) = %#x, want a NaN", name, x, res[0])
				}
			case res[0] != want:
				t.Errorf("%s(%#x) = %#x, want %#x", name, x, res[0], want)
			}
		}
	}
}
