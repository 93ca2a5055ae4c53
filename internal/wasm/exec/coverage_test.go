package exec

import (
	"math"
	"math/bits"
	"testing"

	"wasmcontainers/internal/wasm"
)

// TestBinaryOpBattery exercises every binary operator against a Go
// reference over a fixed grid of interesting operands.
func TestBinaryOpBattery(t *testing.T) {
	i32vals := []int32{0, 1, -1, 2, -2, 7, -7, 127, math.MaxInt32, math.MinInt32}
	i64vals := []int64{0, 1, -1, 3, -3, 1 << 40, math.MaxInt64, math.MinInt64}
	f64vals := []float64{0, -0.0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), 1e300}
	f32vals := []float32{0, 1.5, -2.25, float32(math.Inf(1)), float32(math.NaN())}

	funcs := map[wasm.Opcode]func(a, b Value) (Value, error){}
	for _, op := range []wasm.Opcode{
		wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU,
		wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
		wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU, wasm.OpI32Rotl, wasm.OpI32Rotr,
		wasm.OpI32DivU, wasm.OpI32RemU,
	} {
		funcs[op] = binFunc(t, i32, op)
	}
	for _, op := range []wasm.Opcode{
		wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU,
		wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU,
		wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor,
		wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU, wasm.OpI64Rotl, wasm.OpI64Rotr,
		wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU,
	} {
		funcs[op] = binFunc(t, i64t, op)
	}
	for _, op := range []wasm.Opcode{
		wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge,
		wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div,
		wasm.OpF64Min, wasm.OpF64Max, wasm.OpF64Copysign,
	} {
		funcs[op] = binFunc(t, f64t, op)
	}
	for _, op := range []wasm.Opcode{
		wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt, wasm.OpF32Le, wasm.OpF32Ge,
		wasm.OpF32Add, wasm.OpF32Sub, wasm.OpF32Mul, wasm.OpF32Div,
		wasm.OpF32Min, wasm.OpF32Max,
	} {
		funcs[op] = binFunc(t, f32t, op)
	}

	boolV := func(b bool) Value {
		if b {
			return 1
		}
		return 0
	}

	// i32 reference semantics.
	for _, a := range i32vals {
		for _, b := range i32vals {
			au, bu := uint32(a), uint32(b)
			check := func(op wasm.Opcode, want Value) {
				got, err := funcs[op](I32(a), I32(b))
				if err != nil {
					t.Fatalf("%s(%d,%d): %v", wasm.OpcodeName(op), a, b, err)
				}
				if got != want {
					t.Fatalf("%s(%d,%d) = %#x, want %#x", wasm.OpcodeName(op), a, b, got, want)
				}
			}
			check(wasm.OpI32Eq, boolV(a == b))
			check(wasm.OpI32Ne, boolV(a != b))
			check(wasm.OpI32LtS, boolV(a < b))
			check(wasm.OpI32LtU, boolV(au < bu))
			check(wasm.OpI32GtS, boolV(a > b))
			check(wasm.OpI32GtU, boolV(au > bu))
			check(wasm.OpI32LeS, boolV(a <= b))
			check(wasm.OpI32LeU, boolV(au <= bu))
			check(wasm.OpI32GeS, boolV(a >= b))
			check(wasm.OpI32GeU, boolV(au >= bu))
			check(wasm.OpI32Add, I32(a+b))
			check(wasm.OpI32Sub, I32(a-b))
			check(wasm.OpI32Mul, I32(a*b))
			check(wasm.OpI32And, I32(a&b))
			check(wasm.OpI32Or, I32(a|b))
			check(wasm.OpI32Xor, I32(a^b))
			check(wasm.OpI32Shl, I32(a<<(bu&31)))
			check(wasm.OpI32ShrS, I32(a>>(bu&31)))
			check(wasm.OpI32ShrU, uint64(au>>(bu&31)))
			check(wasm.OpI32Rotl, uint64(bits.RotateLeft32(au, int(bu&31))))
			check(wasm.OpI32Rotr, uint64(bits.RotateLeft32(au, -int(bu&31))))
			if b != 0 {
				check(wasm.OpI32DivU, uint64(au/bu))
				check(wasm.OpI32RemU, uint64(au%bu))
			}
		}
	}

	// i64 reference semantics.
	for _, a := range i64vals {
		for _, b := range i64vals {
			au, bu := uint64(a), uint64(b)
			check := func(op wasm.Opcode, want Value) {
				got, err := funcs[op](I64(a), I64(b))
				if err != nil {
					t.Fatalf("%s(%d,%d): %v", wasm.OpcodeName(op), a, b, err)
				}
				if got != want {
					t.Fatalf("%s(%d,%d) = %#x, want %#x", wasm.OpcodeName(op), a, b, got, want)
				}
			}
			check(wasm.OpI64Eq, boolV(a == b))
			check(wasm.OpI64Ne, boolV(a != b))
			check(wasm.OpI64LtS, boolV(a < b))
			check(wasm.OpI64LtU, boolV(au < bu))
			check(wasm.OpI64GtS, boolV(a > b))
			check(wasm.OpI64GtU, boolV(au > bu))
			check(wasm.OpI64LeS, boolV(a <= b))
			check(wasm.OpI64LeU, boolV(au <= bu))
			check(wasm.OpI64GeS, boolV(a >= b))
			check(wasm.OpI64GeU, boolV(au >= bu))
			check(wasm.OpI64Add, I64(a+b))
			check(wasm.OpI64Sub, I64(a-b))
			check(wasm.OpI64Mul, I64(a*b))
			check(wasm.OpI64And, I64(a&b))
			check(wasm.OpI64Or, I64(a|b))
			check(wasm.OpI64Xor, I64(a^b))
			check(wasm.OpI64Shl, I64(a<<(bu&63)))
			check(wasm.OpI64ShrS, I64(a>>(bu&63)))
			check(wasm.OpI64ShrU, au>>(bu&63))
			check(wasm.OpI64Rotl, bits.RotateLeft64(au, int(bu&63)))
			check(wasm.OpI64Rotr, bits.RotateLeft64(au, -int(bu&63)))
			if b != 0 {
				check(wasm.OpI64DivU, au/bu)
				check(wasm.OpI64RemU, au%bu)
				if !(a == math.MinInt64 && b == -1) {
					check(wasm.OpI64DivS, I64(a/b))
					check(wasm.OpI64RemS, I64(a%b))
				}
			}
		}
	}

	// f64 reference semantics.
	for _, a := range f64vals {
		for _, b := range f64vals {
			check := func(op wasm.Opcode, want float64) {
				got, err := funcs[op](F64(a), F64(b))
				if err != nil {
					t.Fatalf("%s(%v,%v): %v", wasm.OpcodeName(op), a, b, err)
				}
				gf := AsF64(got)
				if math.IsNaN(want) {
					if !math.IsNaN(gf) {
						t.Fatalf("%s(%v,%v) = %v, want NaN", wasm.OpcodeName(op), a, b, gf)
					}
					return
				}
				if gf != want || math.Signbit(gf) != math.Signbit(want) {
					t.Fatalf("%s(%v,%v) = %v, want %v", wasm.OpcodeName(op), a, b, gf, want)
				}
			}
			check(wasm.OpF64Add, a+b)
			check(wasm.OpF64Sub, a-b)
			check(wasm.OpF64Mul, a*b)
			if b != 0 {
				check(wasm.OpF64Div, a/b)
			}
			check(wasm.OpF64Copysign, math.Copysign(a, b))
			cb := func(op wasm.Opcode, want bool) {
				got, _ := funcs[op](F64(a), F64(b))
				if got != boolV(want) {
					t.Fatalf("%s(%v,%v) = %d, want %v", wasm.OpcodeName(op), a, b, got, want)
				}
			}
			cb(wasm.OpF64Eq, a == b)
			cb(wasm.OpF64Ne, a != b)
			cb(wasm.OpF64Lt, a < b)
			cb(wasm.OpF64Gt, a > b)
			cb(wasm.OpF64Le, a <= b)
			cb(wasm.OpF64Ge, a >= b)
		}
	}

	// f32: spot checks across the grid (reference through float32 math).
	for _, a := range f32vals {
		for _, b := range f32vals {
			got, err := funcs[wasm.OpF32Add](F32(a), F32(b))
			if err != nil {
				t.Fatal(err)
			}
			want := a + b
			gf := AsF32(got)
			if math.IsNaN(float64(want)) {
				if !math.IsNaN(float64(gf)) {
					t.Fatalf("f32.add(%v,%v) = %v", a, b, gf)
				}
			} else if gf != want {
				t.Fatalf("f32.add(%v,%v) = %v, want %v", a, b, gf, want)
			}
		}
	}
}

// TestUnsignedTruncations covers the trapping and saturating unsigned
// float->int conversions.
func TestUnsignedTruncations(t *testing.T) {
	// i32.trunc_f64_u trapping.
	b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI32TruncF64U).End()
	m := buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i32}, nil, b))
	inst := instantiate(t, m)
	res, err := inst.Call("f", F64(4294967295))
	if err != nil || AsU32(res[0]) != math.MaxUint32 {
		t.Fatalf("trunc_u(2^32-1) = %v, %v", res, err)
	}
	if _, err := inst.Call("f", F64(-1)); !IsTrap(err, TrapIntegerOverflow) {
		t.Fatalf("trunc_u(-1): %v", err)
	}
	if _, err := inst.Call("f", F64(4294967296)); !IsTrap(err, TrapIntegerOverflow) {
		t.Fatalf("trunc_u(2^32): %v", err)
	}
	if _, err := inst.Call("f", F64(math.NaN())); !IsTrap(err, TrapInvalidConversion) {
		t.Fatalf("trunc_u(NaN): %v", err)
	}
	// i64.trunc_f64_u trapping.
	b64 := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI64TruncF64U).End()
	m64 := buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i64t}, nil, b64))
	inst64 := instantiate(t, m64)
	res, err = inst64.Call("f", F64(1e18))
	if err != nil || res[0] != uint64(1e18) {
		t.Fatalf("trunc_u64(1e18) = %v, %v", res, err)
	}
	if _, err := inst64.Call("f", F64(-0.5)); err != nil {
		t.Fatalf("trunc_u64(-0.5) should be 0 (truncates toward zero): %v", err)
	}
	if _, err := inst64.Call("f", F64(2e19)); !IsTrap(err, TrapIntegerOverflow) {
		t.Fatalf("trunc_u64(2e19): %v", err)
	}

	// Saturating unsigned variants never trap.
	sat := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Misc(wasm.MiscI32TruncSatF64U).End()
	mSat := buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i32}, nil, sat))
	instSat := instantiate(t, mSat)
	cases := []struct {
		in   float64
		want uint32
	}{
		{-5, 0}, {math.NaN(), 0}, {1e12, math.MaxUint32}, {7.9, 7},
	}
	for _, c := range cases {
		res, err := instSat.Call("f", F64(c.in))
		if err != nil || AsU32(res[0]) != c.want {
			t.Fatalf("trunc_sat_u(%v) = %v, %v (want %d)", c.in, res, err, c.want)
		}
	}
	sat64 := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Misc(wasm.MiscI64TruncSatF64U).End()
	mSat64 := buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i64t}, nil, sat64))
	instSat64 := instantiate(t, mSat64)
	res, err = instSat64.Call("f", F64(1e30))
	if err != nil || res[0] != math.MaxUint64 {
		t.Fatalf("trunc_sat_u64(1e30) = %v, %v", res, err)
	}
	res, err = instSat64.Call("f", F64(-1e30))
	if err != nil || res[0] != 0 {
		t.Fatalf("trunc_sat_u64(-1e30) = %v, %v", res, err)
	}
	// f32-sourced saturating conversions.
	sat32src := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Misc(wasm.MiscI64TruncSatF32U).End()
	mSat32 := buildModule(t, singleFunc([]wasm.ValueType{f32t}, []wasm.ValueType{i64t}, nil, sat32src))
	instSat32 := instantiate(t, mSat32)
	res, err = instSat32.Call("f", F32(100.7))
	if err != nil || res[0] != 100 {
		t.Fatalf("trunc_sat_u64_f32(100.7) = %v, %v", res, err)
	}
}

// TestMemoryHelperAPIs covers the embedder-facing Memory methods.
func TestMemoryHelperAPIs(t *testing.T) {
	mem := NewMemory(wasm.MemoryType{Limits: wasm.Limits{Min: 1}}, 0)
	if mem.Size() != wasm.PageSize || mem.Pages() != 1 {
		t.Fatal("initial size")
	}
	if !mem.WriteUint64(8, 0x1122334455667788) {
		t.Fatal("WriteUint64")
	}
	if v, ok := mem.ReadUint64(8); !ok || v != 0x1122334455667788 {
		t.Fatalf("ReadUint64 = %#x, %v", v, ok)
	}
	if ok := mem.Write(100, []byte("hello")); !ok {
		t.Fatal("Write")
	}
	if s, ok := mem.ReadString(100, 5); !ok || s != "hello" {
		t.Fatalf("ReadString = %q", s)
	}
	b, ok := mem.Read(100, 5)
	if !ok || string(b) != "hello" {
		t.Fatal("Read")
	}
	b[0] = 'X' // Read returns a copy
	if s, _ := mem.ReadString(100, 5); s != "hello" {
		t.Fatal("Read aliases memory")
	}
	v, ok := mem.View(100, 5)
	if !ok {
		t.Fatal("View")
	}
	v[0] = 'Y' // View aliases
	if s, _ := mem.ReadString(100, 5); s != "Yello" {
		t.Fatal("View does not alias memory")
	}
	// Bounds behaviour.
	if _, ok := mem.Read(uint32(mem.Size())-2, 4); ok {
		t.Fatal("OOB Read succeeded")
	}
	if mem.Write(uint32(mem.Size())-1, []byte("ab")) {
		t.Fatal("OOB Write succeeded")
	}
	if _, ok := mem.ReadUint32(uint32(mem.Size()) - 3); ok {
		t.Fatal("OOB ReadUint32 succeeded")
	}
	if mem.WriteUint32(uint32(mem.Size())-3, 1) {
		t.Fatal("OOB WriteUint32 succeeded")
	}
	if len(mem.Bytes()) != mem.Size() {
		t.Fatal("Bytes length")
	}
	// Grow behaviour with engine cap.
	capped := NewMemory(wasm.MemoryType{Limits: wasm.Limits{Min: 1}}, 2)
	if capped.Grow(1) != 1 {
		t.Fatal("grow to cap")
	}
	if capped.Grow(1) != -1 {
		t.Fatal("grow past engine cap succeeded")
	}
	if capped.Grow(0) != 2 {
		t.Fatal("grow(0) should return current size")
	}
	if capped.Pages() != 2 {
		t.Fatalf("Pages = %d", capped.Pages())
	}
}

// TestHostGlobalsAndMemoriesImport covers host-module globals/memories.
func TestHostGlobalsAndMemoriesImport(t *testing.T) {
	s := NewStore(Config{})
	hostMem := NewMemory(wasm.MemoryType{Limits: wasm.Limits{Min: 2}}, 0)
	hostMem.WriteUint32(0, 0xabcd1234)
	s.NewHostModule("env").
		AddGlobal("base", &GlobalVar{Type: wasm.GlobalType{ValType: wasm.ValueTypeI32}, Val: I32(64)}).
		AddMemory("memory", hostMem)

	b := new(wasm.BodyBuilder).
		I32Const(0).MemArg(wasm.OpI32Load, 2, 0).
		OpU32(wasm.OpGlobalGet, 0).
		Op(wasm.OpI32Add).
		End()
	m := &wasm.Module{
		Types: []wasm.FuncType{{Results: []wasm.ValueType{i32}}},
		Imports: []wasm.Import{
			{Module: "env", Name: "base", Kind: wasm.ExternalGlobal,
				Global: wasm.GlobalType{ValType: wasm.ValueTypeI32}},
			{Module: "env", Name: "memory", Kind: wasm.ExternalMemory,
				Memory: wasm.MemoryType{Limits: wasm.Limits{Min: 1}}},
		},
		Functions: []uint32{0},
		Codes:     []wasm.Code{{Body: b.Bytes()}},
		Exports:   []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 0}},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	if AsU32(res[0]) != 0xabcd1234+64 {
		t.Fatalf("got %#x", AsU32(res[0]))
	}
}

// TestFuelRefill covers AddFuel on a fueled store.
func TestFuelRefill(t *testing.T) {
	b := new(wasm.BodyBuilder)
	b.Block(wasm.OpLoop, wasm.BlockTypeEmpty)
	b.OpU32(wasm.OpBr, 0)
	b.End()
	b.End()
	m := buildModule(t, singleFunc(nil, nil, nil, b))
	s := NewStore(Config{Fuel: 100})
	inst, err := s.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("f"); !IsTrap(err, TrapOutOfFuel) {
		t.Fatal(err)
	}
	s.AddFuel(50)
	if s.FuelLeft() != 50 {
		t.Fatalf("fuel = %d", s.FuelLeft())
	}
	if _, err := inst.Call("f"); !IsTrap(err, TrapOutOfFuel) {
		t.Fatal(err)
	}
	// AddFuel on an unfueled store is a no-op.
	s2 := NewStore(Config{})
	s2.AddFuel(10)
	if s2.FuelLeft() != 0 {
		t.Fatal("unfueled store accepted fuel")
	}
}

// TestSignedLoadsInPackage covers loadSigned paths.
func TestSignedLoadsInPackage(t *testing.T) {
	cases := []struct {
		store wasm.Opcode
		load  wasm.Opcode
		out   wasm.ValueType
		val   Value
		want  Value
	}{
		{wasm.OpI32Store8, wasm.OpI32Load8S, i32, I32(0xFF), I32(-1)},
		{wasm.OpI32Store16, wasm.OpI32Load16S, i32, I32(0xFFFF), I32(-1)},
		{wasm.OpI64Store8, wasm.OpI64Load8S, i64t, I64(0x80), I64(-128)},
		{wasm.OpI64Store16, wasm.OpI64Load16S, i64t, I64(0xFFFF), I64(-1)},
		{wasm.OpI64Store32, wasm.OpI64Load32S, i64t, I64(0xFFFFFFFF), I64(-1)},
	}
	for _, c := range cases {
		b := new(wasm.BodyBuilder)
		b.I32Const(0).OpU32(wasm.OpLocalGet, 0).MemArg(c.store, 0, 0)
		b.I32Const(0).MemArg(c.load, 0, 0)
		b.End()
		in := i32
		if c.out == i64t {
			in = i64t
		}
		m := singleFunc([]wasm.ValueType{in}, []wasm.ValueType{c.out}, nil, b)
		m.Memories = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}}
		inst := instantiate(t, buildModule(t, m))
		res, err := inst.Call("f", c.val)
		if err != nil {
			t.Fatalf("%s: %v", wasm.OpcodeName(c.load), err)
		}
		if res[0] != c.want {
			t.Fatalf("%s = %#x, want %#x", wasm.OpcodeName(c.load), res[0], c.want)
		}
	}
}
