package wasm

import (
	"strings"
	"testing"
)

// minimalModule builds a tiny valid module for mutation tests.
func minimalModule() *Module {
	body := new(BodyBuilder).I32Const(42).End()
	return &Module{
		Types:     []FuncType{{Results: []ValueType{ValueTypeI32}}},
		Functions: []uint32{0},
		Codes:     []Code{{Body: body.Bytes()}},
		Exports:   []Export{{Name: "answer", Kind: ExternalFunc, Index: 0}},
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	m := minimalModule()
	m.Memories = []MemoryType{{Limits: Limits{Min: 1, Max: 16, HasMax: true}}}
	m.Tables = []TableType{{ElemType: ValueTypeFuncref, Limits: Limits{Min: 2}}}
	m.Globals = []Global{{Type: GlobalType{ValType: ValueTypeI64, Mutable: true}, Init: I64Const(-7)}}
	m.Data = []DataSegment{{Offset: I32Const(0), Data: []byte("abc")}}
	m.Elements = []ElementSegment{{Offset: I32Const(0), Indices: []uint32{0}}}
	m.Customs = []CustomSection{{Name: "producers", Data: []byte{1, 2, 3}}}

	bin := Encode(m)
	got, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Types) != 1 || len(got.Functions) != 1 || len(got.Codes) != 1 {
		t.Fatalf("structure lost: %+v", got)
	}
	if got.Memories[0].Limits != m.Memories[0].Limits {
		t.Fatalf("memory limits: %+v", got.Memories[0])
	}
	if got.Globals[0].Init.Value != m.Globals[0].Init.Value {
		t.Fatalf("global init lost")
	}
	if string(got.Data[0].Data) != "abc" {
		t.Fatalf("data lost")
	}
	if got.Customs[0].Name != "producers" {
		t.Fatalf("custom section lost")
	}
	// Re-encoding is byte-identical (canonical encoder).
	if string(Encode(got)) != string(bin) {
		t.Fatal("Encode(Decode(Encode(m))) differs from Encode(m)")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode([]byte("\x00asn\x01\x00\x00\x00")); err != ErrNotWasm {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := Decode(nil); err != ErrNotWasm {
		t.Fatalf("empty: %v", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	_, err := Decode([]byte("\x00asm\x02\x00\x00\x00"))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
}

func TestDecodeRejectsOutOfOrderSections(t *testing.T) {
	m := minimalModule()
	bin := Encode(m)
	// Valid encode produces type(1), function(3), export(7), code(10).
	// Append a duplicate type section at the end: out of order.
	dup := append([]byte{}, bin...)
	dup = append(dup, byte(SectionType), 4, 1, 0x60, 0, 0)
	if _, err := Decode(dup); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order section: %v", err)
	}
}

func TestDecodeRejectsTruncatedSection(t *testing.T) {
	m := minimalModule()
	bin := Encode(m)
	for cut := len(bin) - 1; cut > 8; cut -= 3 {
		if _, err := Decode(bin[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsFunctionCodeMismatch(t *testing.T) {
	m := minimalModule()
	m.Functions = append(m.Functions, 0) // two functions, one body
	bin := Encode(m)
	if _, err := Decode(bin); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("mismatch: %v", err)
	}
}

func TestDecodeRejectsTrailingSectionBytes(t *testing.T) {
	// A type section declaring 0 types but with an extra byte.
	bin := []byte("\x00asm\x01\x00\x00\x00")
	bin = append(bin, byte(SectionType), 2, 0, 0xAA)
	if _, err := Decode(bin); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestDecodeRejectsBadValueType(t *testing.T) {
	bin := []byte("\x00asm\x01\x00\x00\x00")
	// type section: 1 type, form 0x60, 1 param of bogus type 0x55.
	bin = append(bin, byte(SectionType), 5, 1, 0x60, 1, 0x55, 0)
	if _, err := Decode(bin); err == nil {
		t.Fatal("bogus value type accepted")
	}
}

// Unique export names are a validation rule, not a decoding one: Decode
// reads a duplicate, and Validate, which every module meets after Decode or
// the assembler, rejects it.
func TestValidateRejectsDecodedDuplicateExports(t *testing.T) {
	m := minimalModule()
	m.Exports = append(m.Exports, Export{Name: "answer", Kind: ExternalFunc, Index: 0})
	dm, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := Validate(dm); err == nil || !strings.Contains(err.Error(), "duplicate export") {
		t.Fatalf("dup export: %v", err)
	}
}

func TestDecodeRejectsInvalidUTF8Name(t *testing.T) {
	m := minimalModule()
	m.Exports[0].Name = string([]byte{0xff, 0xfe})
	if _, err := Decode(Encode(m)); err == nil || !strings.Contains(err.Error(), "UTF-8") {
		t.Fatalf("bad utf8: %v", err)
	}
}

func TestDecodeRejectsBodyWithoutEnd(t *testing.T) {
	m := minimalModule()
	m.Codes[0].Body = []byte{byte(OpI32Const), 1} // no end opcode
	if _, err := Decode(Encode(m)); err == nil || !strings.Contains(err.Error(), "end") {
		t.Fatalf("missing end: %v", err)
	}
}

func TestDecodeRejectsTooManyLocals(t *testing.T) {
	// Hand-encode a code section declaring 60000 i32 locals in one group.
	bin := []byte("\x00asm\x01\x00\x00\x00")
	bin = append(bin, byte(SectionType), 4, 1, 0x60, 0, 0)
	bin = append(bin, byte(SectionFunction), 2, 1, 0)
	var body []byte
	body = appendU32(body, 1)     // one local group
	body = appendU32(body, 60000) // count
	body = append(body, byte(ValueTypeI32))
	body = append(body, byte(OpEnd))
	var codeSec []byte
	codeSec = appendU32(codeSec, 1)
	codeSec = appendU32(codeSec, uint32(len(body)))
	codeSec = append(codeSec, body...)
	bin = append(bin, byte(SectionCode))
	bin = appendU32(bin, uint32(len(codeSec)))
	bin = append(bin, codeSec...)
	if _, err := Decode(bin); err == nil || !strings.Contains(err.Error(), "too many locals") {
		t.Fatalf("too many locals: %v", err)
	}
}

func TestDecodeStartSection(t *testing.T) {
	m := minimalModule()
	m.Types = append(m.Types, FuncType{})
	m.Functions = append(m.Functions, 1)
	m.Codes = append(m.Codes, Code{Body: new(BodyBuilder).End().Bytes()})
	m.StartSet = true
	m.Start = 1
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.StartSet || got.Start != 1 {
		t.Fatalf("start lost: %+v", got)
	}
}

func TestModuleIndexSpaces(t *testing.T) {
	m := &Module{
		Types: []FuncType{
			{Params: []ValueType{ValueTypeI32}},
			{Results: []ValueType{ValueTypeI64}},
		},
		Imports: []Import{
			{Module: "env", Name: "f", Kind: ExternalFunc, Func: 0},
			{Module: "env", Name: "g", Kind: ExternalGlobal, Global: GlobalType{ValType: ValueTypeF64}},
			{Module: "env", Name: "m", Kind: ExternalMemory, Memory: MemoryType{Limits: Limits{Min: 1}}},
			{Module: "env", Name: "t", Kind: ExternalTable, Table: TableType{ElemType: ValueTypeFuncref, Limits: Limits{Min: 1}}},
		},
		Functions: []uint32{1},
		Globals:   []Global{{Type: GlobalType{ValType: ValueTypeI32}, Init: I32Const(0)}},
	}
	if n := m.NumImportedFuncs(); n != 1 {
		t.Fatalf("imported funcs = %d", n)
	}
	if n := m.NumImportedGlobals(); n != 1 {
		t.Fatalf("imported globals = %d", n)
	}
	// Function 0 is the import (type 0); function 1 is defined (type 1).
	ft, err := m.FuncTypeAt(0)
	if err != nil || len(ft.Params) != 1 {
		t.Fatalf("func 0: %v %v", ft, err)
	}
	ft, err = m.FuncTypeAt(1)
	if err != nil || len(ft.Results) != 1 {
		t.Fatalf("func 1: %v %v", ft, err)
	}
	if _, err := m.FuncTypeAt(2); err == nil {
		t.Fatal("out-of-range function accepted")
	}
	// Global index space: 0 imported f64, 1 defined i32.
	gt, ok := m.GlobalTypeAt(0)
	if !ok || gt.ValType != ValueTypeF64 {
		t.Fatalf("global 0: %+v %v", gt, ok)
	}
	gt, ok = m.GlobalTypeAt(1)
	if !ok || gt.ValType != ValueTypeI32 {
		t.Fatalf("global 1: %+v %v", gt, ok)
	}
	if _, ok := m.GlobalTypeAt(2); ok {
		t.Fatal("global 2 should not resolve")
	}
}

func TestFuncTypeString(t *testing.T) {
	ft := FuncType{
		Params:  []ValueType{ValueTypeI32, ValueTypeF64},
		Results: []ValueType{ValueTypeI64},
	}
	if got := ft.String(); got != "(i32, f64) -> (i64)" {
		t.Fatalf("String() = %q", got)
	}
	if ValueTypeFuncref.String() != "funcref" {
		t.Fatal("funcref name")
	}
	if !ValueTypeF32.IsNumeric() || ValueTypeFuncref.IsNumeric() {
		t.Fatal("IsNumeric")
	}
}

func TestExternalKindString(t *testing.T) {
	names := map[ExternalKind]string{
		ExternalFunc: "func", ExternalTable: "table",
		ExternalMemory: "memory", ExternalGlobal: "global",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestOpcodeNames(t *testing.T) {
	if OpcodeName(OpI32Add) != "i32.add" {
		t.Fatal("i32.add name")
	}
	if OpcodeName(OpCallIndirect) != "call_indirect" {
		t.Fatal("call_indirect name")
	}
	if !strings.HasPrefix(OpcodeName(Opcode(0xff)), "op(0x") {
		t.Fatal("unknown opcode name")
	}
}

func TestNameSectionRoundTrip(t *testing.T) {
	m := minimalModule()
	EncodeNameSection(m, NameMap{
		ModuleName: "demo",
		FuncNames:  map[uint32]string{0: "answer", 5: "helper"},
	})
	decoded, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	nm := DecodeNameSection(decoded)
	if nm.ModuleName != "demo" {
		t.Fatalf("module name = %q", nm.ModuleName)
	}
	if nm.FuncNames[0] != "answer" || nm.FuncNames[5] != "helper" {
		t.Fatalf("func names = %v", nm.FuncNames)
	}
	// Re-encoding replaces rather than duplicates.
	EncodeNameSection(decoded, NameMap{FuncNames: map[uint32]string{0: "renamed"}})
	count := 0
	for _, cs := range decoded.Customs {
		if cs.Name == "name" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d name sections", count)
	}
	if got := DecodeNameSection(decoded).FuncNames[0]; got != "renamed" {
		t.Fatalf("renamed = %q", got)
	}
}

func TestNameSectionMalformedIsSoft(t *testing.T) {
	m := minimalModule()
	m.Customs = []CustomSection{{Name: "name", Data: []byte{0xff, 0xff, 0xff}}}
	nm := DecodeNameSection(m)
	if len(nm.FuncNames) != 0 {
		t.Fatal("garbage produced names")
	}
	// Absent section.
	if nm := DecodeNameSection(minimalModule()); nm.ModuleName != "" || len(nm.FuncNames) != 0 {
		t.Fatal("absent section produced names")
	}
}

func TestFloatConstRoundTrip(t *testing.T) {
	// Globals with f32/f64 initializers exercise the float const expression
	// encode/decode paths.
	m := minimalModule()
	m.Globals = []Global{
		{Type: GlobalType{ValType: ValueTypeF32}, Init: ConstExpr{Op: ConstF32, Value: 0x40490fdb}},
		{Type: GlobalType{ValType: ValueTypeF64}, Init: ConstExpr{Op: ConstF64, Value: 0x400921fb54442d18}},
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(got); err != nil {
		t.Fatal(err)
	}
	if got.Globals[0].Init.Value != 0x40490fdb {
		t.Fatalf("f32 const bits = %#x", got.Globals[0].Init.Value)
	}
	if got.Globals[1].Init.Value != 0x400921fb54442d18 {
		t.Fatalf("f64 const bits = %#x", got.Globals[1].Init.Value)
	}
	// global.get initializer round-trips too.
	m2 := minimalModule()
	m2.Imports = []Import{{Module: "env", Name: "base", Kind: ExternalGlobal,
		Global: GlobalType{ValType: ValueTypeI32}}}
	m2.Globals = []Global{{Type: GlobalType{ValType: ValueTypeI32}, Init: GlobalGet(0)}}
	got2, err := Decode(Encode(m2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Globals[0].Init.Op != ConstGlobalGet || got2.Globals[0].Init.Value != 0 {
		t.Fatalf("global.get init lost: %+v", got2.Globals[0].Init)
	}
}

func TestImportsOfAllKindsRoundTrip(t *testing.T) {
	m := &Module{
		Types: []FuncType{{Params: []ValueType{ValueTypeI32}}},
		Imports: []Import{
			{Module: "env", Name: "f", Kind: ExternalFunc, Func: 0},
			{Module: "env", Name: "t", Kind: ExternalTable,
				Table: TableType{ElemType: ValueTypeFuncref, Limits: Limits{Min: 1, Max: 8, HasMax: true}}},
			{Module: "env", Name: "m", Kind: ExternalMemory,
				Memory: MemoryType{Limits: Limits{Min: 2}}},
			{Module: "env", Name: "g", Kind: ExternalGlobal,
				Global: GlobalType{ValType: ValueTypeF64}},
		},
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(got); err != nil {
		t.Fatal(err)
	}
	if len(got.Imports) != 4 {
		t.Fatalf("imports = %d", len(got.Imports))
	}
	if got.Imports[1].Table.Limits.Max != 8 {
		t.Fatalf("table import limits = %+v", got.Imports[1].Table)
	}
	if got.Imports[2].Memory.Limits.Min != 2 {
		t.Fatalf("memory import limits = %+v", got.Imports[2].Memory)
	}
	if got.Imports[3].Global.ValType != ValueTypeF64 {
		t.Fatalf("global import = %+v", got.Imports[3].Global)
	}
}

func TestBodyBuilderFloatAndMisc(t *testing.T) {
	// f32.const/f64.const/misc through the builder, executed elsewhere; here
	// we check the encodings decode back.
	body := new(BodyBuilder).
		F32Const(2.5).Op(OpDrop).
		F64Const(-7.25).Op(OpDrop).
		End()
	m := &Module{
		Types:     []FuncType{{}},
		Functions: []uint32{0},
		Codes:     []Code{{Body: body.Bytes()}},
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(Encode(m)); err != nil {
		t.Fatal(err)
	}
}

func TestCodeLocalGroupCompression(t *testing.T) {
	// Mixed local types compress into runs; decode re-expands them.
	body := new(BodyBuilder).End()
	m := &Module{
		Types:     []FuncType{{}},
		Functions: []uint32{0},
		Codes: []Code{{
			Locals: []ValueType{
				ValueTypeI32, ValueTypeI32, ValueTypeI32,
				ValueTypeF64,
				ValueTypeI64, ValueTypeI64,
			},
			Body: body.Bytes(),
		}},
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	want := []ValueType{ValueTypeI32, ValueTypeI32, ValueTypeI32, ValueTypeF64, ValueTypeI64, ValueTypeI64}
	if len(got.Codes[0].Locals) != len(want) {
		t.Fatalf("locals = %v", got.Codes[0].Locals)
	}
	for i, vt := range want {
		if got.Codes[0].Locals[i] != vt {
			t.Fatalf("locals[%d] = %s, want %s", i, got.Codes[0].Locals[i], vt)
		}
	}
}
