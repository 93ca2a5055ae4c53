package wasm

import (
	"strings"
	"testing"
)

// mod builds a single-function module from a body for validation tests.
func mod(ft FuncType, locals []ValueType, body *BodyBuilder) *Module {
	return &Module{
		Types:     []FuncType{ft},
		Functions: []uint32{0},
		Codes:     []Code{{Locals: locals, Body: body.Bytes()}},
	}
}

func expectValid(t *testing.T, m *Module) {
	t.Helper()
	if err := Validate(m); err != nil {
		t.Fatalf("expected valid, got: %v", err)
	}
}

func expectInvalid(t *testing.T, m *Module, fragment string) {
	t.Helper()
	err := Validate(m)
	if err == nil {
		t.Fatalf("expected invalid (%s), got valid", fragment)
	}
	if fragment != "" && !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestValidateSimpleFunctions(t *testing.T) {
	expectValid(t, mod(
		FuncType{Params: []ValueType{ValueTypeI32, ValueTypeI32}, Results: []ValueType{ValueTypeI32}},
		nil,
		new(BodyBuilder).OpU32(OpLocalGet, 0).OpU32(OpLocalGet, 1).Op(OpI32Add).End(),
	))
	expectValid(t, mod(FuncType{}, nil, new(BodyBuilder).End()))
}

func TestValidateStackErrors(t *testing.T) {
	// Add with only one operand.
	expectInvalid(t, mod(
		FuncType{Params: []ValueType{ValueTypeI32}, Results: []ValueType{ValueTypeI32}},
		nil,
		new(BodyBuilder).OpU32(OpLocalGet, 0).Op(OpI32Add).End(),
	), "underflow")

	// Wrong operand type.
	expectInvalid(t, mod(
		FuncType{Results: []ValueType{ValueTypeI32}},
		nil,
		new(BodyBuilder).I64Const(1).I32Const(2).Op(OpI32Add).End(),
	), "type mismatch")

	// Leftover value at end of function.
	expectInvalid(t, mod(
		FuncType{},
		nil,
		new(BodyBuilder).I32Const(1).End(),
	), "")

	// Missing result.
	expectInvalid(t, mod(
		FuncType{Results: []ValueType{ValueTypeI32}},
		nil,
		new(BodyBuilder).End(),
	), "")
}

func TestValidateLocalsAndGlobals(t *testing.T) {
	// Unknown local.
	expectInvalid(t, mod(
		FuncType{},
		nil,
		new(BodyBuilder).OpU32(OpLocalGet, 3).Op(OpDrop).End(),
	), "unknown local")

	// Local type mismatch on set.
	expectInvalid(t, mod(
		FuncType{},
		[]ValueType{ValueTypeI64},
		new(BodyBuilder).I32Const(1).OpU32(OpLocalSet, 0).End(),
	), "type mismatch")

	// Setting an immutable global.
	m := mod(FuncType{}, nil, new(BodyBuilder).I32Const(1).OpU32(OpGlobalSet, 0).End())
	m.Globals = []Global{{Type: GlobalType{ValType: ValueTypeI32}, Init: I32Const(0)}}
	expectInvalid(t, m, "immutable")

	// Getting an unknown global.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).OpU32(OpGlobalGet, 0).Op(OpDrop).End()), "unknown global")
}

func TestValidateControlFlow(t *testing.T) {
	// Branch depth out of range.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).OpU32(OpBr, 5).End()), "unknown label")

	// else without if.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).Op(OpElse).End()), "")

	// if with result but no else.
	b := new(BodyBuilder)
	b.I32Const(1)
	b.Block(OpIf, BlockTypeOf(ValueTypeI32))
	b.I32Const(2)
	b.End()
	b.Op(OpDrop)
	b.End()
	expectInvalid(t, mod(FuncType{}, nil, b), "mismatched signature")

	// Valid block returning a value through a branch.
	b = new(BodyBuilder)
	b.Block(OpBlock, BlockTypeOf(ValueTypeI32))
	b.I32Const(7)
	b.OpU32(OpBr, 0)
	b.End()
	b.Op(OpDrop)
	b.End()
	expectValid(t, mod(FuncType{}, nil, b))

	// br_table with inconsistent label arities.
	b = new(BodyBuilder)
	b.Block(OpBlock, BlockTypeOf(ValueTypeI32)) // outer yields i32
	b.Block(OpBlock, BlockTypeEmpty)            // inner yields nothing
	b.I32Const(0)
	b.BrTable([]uint32{0}, 1)
	b.End()
	b.I32Const(1)
	b.End()
	b.Op(OpDrop)
	b.End()
	expectInvalid(t, mod(FuncType{}, nil, b), "br_table")
}

func TestValidateUnreachableCode(t *testing.T) {
	// Code after unreachable may be arbitrarily typed (polymorphic stack).
	b := new(BodyBuilder)
	b.Op(OpUnreachable)
	b.Op(OpI32Add) // operands come from the polymorphic stack
	b.Op(OpDrop)
	b.End()
	expectValid(t, mod(FuncType{}, nil, b))

	// Return works the same way.
	b = new(BodyBuilder)
	b.I32Const(1)
	b.Op(OpReturn)
	b.Op(OpF64Mul)
	b.Op(OpDrop)
	b.End()
	expectValid(t, mod(FuncType{Results: []ValueType{ValueTypeI32}}, nil, b))
}

func TestValidateMemoryRules(t *testing.T) {
	// Memory access without a memory.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).I32Const(0).MemArg(OpI32Load, 2, 0).Op(OpDrop).End()),
		"without a memory")

	// Excessive alignment.
	m := mod(FuncType{}, nil,
		new(BodyBuilder).I32Const(0).MemArg(OpI32Load, 3, 0).Op(OpDrop).End())
	m.Memories = []MemoryType{{Limits: Limits{Min: 1}}}
	expectInvalid(t, m, "alignment")

	// memory.size without memory.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).MemoryOp(OpMemorySize).Op(OpDrop).End()), "without a memory")

	// Multiple memories are rejected.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Memories = []MemoryType{{Limits: Limits{Min: 1}}, {Limits: Limits{Min: 1}}}
	expectInvalid(t, m, "multiple memories")

	// Memory bigger than 4GiB.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Memories = []MemoryType{{Limits: Limits{Min: MaxMemoryPages + 1}}}
	expectInvalid(t, m, "4GiB")

	// Max below min.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Memories = []MemoryType{{Limits: Limits{Min: 4, Max: 2, HasMax: true}}}
	expectInvalid(t, m, "")
}

func TestValidateCalls(t *testing.T) {
	// Unknown function.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).OpU32(OpCall, 9).End()), "unknown function")

	// call_indirect without a table.
	expectInvalid(t, mod(FuncType{}, nil,
		new(BodyBuilder).I32Const(0).CallIndirect(0).End()), "without a table")

	// Argument type mismatch.
	m := &Module{
		Types: []FuncType{
			{Params: []ValueType{ValueTypeI64}},
			{},
		},
		Functions: []uint32{0, 1},
		Codes: []Code{
			{Body: new(BodyBuilder).OpU32(OpLocalGet, 0).Op(OpDrop).End().Bytes()},
			{Body: new(BodyBuilder).I32Const(0).OpU32(OpCall, 0).End().Bytes()},
		},
	}
	expectInvalid(t, m, "type mismatch")
}

func TestValidateImportsAndExports(t *testing.T) {
	// Import with bad type index.
	m := &Module{
		Imports: []Import{{Module: "env", Name: "f", Kind: ExternalFunc, Func: 3}},
	}
	expectInvalid(t, m, "unknown type")

	// Mutable global import is illegal in MVP.
	m = &Module{
		Imports: []Import{{Module: "env", Name: "g", Kind: ExternalGlobal,
			Global: GlobalType{ValType: ValueTypeI32, Mutable: true}}},
	}
	expectInvalid(t, m, "mutable")

	// Export of unknown function.
	m = &Module{Exports: []Export{{Name: "x", Kind: ExternalFunc, Index: 0}}}
	expectInvalid(t, m, "unknown func")

	// Duplicate export names, of one kind or of two.
	empty := Code{Body: new(BodyBuilder).End().Bytes()}
	for _, m := range []*Module{
		// (module (func (export "a")) (func (export "a")))
		{Types: []FuncType{{}}, Functions: []uint32{0, 0}, Codes: []Code{empty, empty},
			Exports: []Export{{Name: "a", Kind: ExternalFunc, Index: 0}, {Name: "a", Kind: ExternalFunc, Index: 1}}},
		// (module (memory (export "") 0) (func (export "")))
		{Types: []FuncType{{}}, Functions: []uint32{0}, Codes: []Code{empty}, Memories: []MemoryType{{}},
			Exports: []Export{{Name: "", Kind: ExternalMemory, Index: 0}, {Name: "", Kind: ExternalFunc, Index: 0}}},
	} {
		expectInvalid(t, m, "duplicate export name")
	}
}

func TestValidateStartFunction(t *testing.T) {
	// Start with parameters is illegal.
	m := mod(FuncType{Params: []ValueType{ValueTypeI32}}, nil,
		new(BodyBuilder).End())
	m.StartSet = true
	m.Start = 0
	expectInvalid(t, m, "signature")

	// Unknown start index.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.StartSet = true
	m.Start = 7
	expectInvalid(t, m, "")
}

func TestValidateSegments(t *testing.T) {
	// Element segment without a table.
	m := mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Elements = []ElementSegment{{Offset: I32Const(0), Indices: []uint32{0}}}
	expectInvalid(t, m, "no table")

	// Element offset of wrong type.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Tables = []TableType{{ElemType: ValueTypeFuncref, Limits: Limits{Min: 1}}}
	m.Elements = []ElementSegment{{Offset: I64Const(0), Indices: []uint32{0}}}
	expectInvalid(t, m, "constant i32")

	// Element referencing unknown function.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Tables = []TableType{{ElemType: ValueTypeFuncref, Limits: Limits{Min: 1}}}
	m.Elements = []ElementSegment{{Offset: I32Const(0), Indices: []uint32{5}}}
	expectInvalid(t, m, "unknown function")

	// Data segment without memory.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Data = []DataSegment{{Offset: I32Const(0), Data: []byte("x")}}
	expectInvalid(t, m, "no memory")
}

func TestValidateGlobalInitializers(t *testing.T) {
	// Initializer type mismatch.
	m := mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Globals = []Global{{Type: GlobalType{ValType: ValueTypeI32}, Init: I64Const(1)}}
	expectInvalid(t, m, "does not match")

	// global.get initializer may only reference imported globals.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Globals = []Global{
		{Type: GlobalType{ValType: ValueTypeI32}, Init: I32Const(1)},
		{Type: GlobalType{ValType: ValueTypeI32}, Init: GlobalGet(0)},
	}
	expectInvalid(t, m, "unknown global")

	// Referencing an imported immutable global is fine.
	m = mod(FuncType{}, nil, new(BodyBuilder).End())
	m.Imports = []Import{{Module: "env", Name: "base", Kind: ExternalGlobal,
		Global: GlobalType{ValType: ValueTypeI32}}}
	m.Globals = []Global{{Type: GlobalType{ValType: ValueTypeI32}, Init: GlobalGet(0)}}
	expectValid(t, m)
}

func TestValidateSelectTyping(t *testing.T) {
	// select operands must agree.
	expectInvalid(t, mod(FuncType{Results: []ValueType{ValueTypeI32}}, nil,
		new(BodyBuilder).I32Const(1).I64Const(2).I32Const(0).Op(OpSelect).End()),
		"select")
	// Agreeing operands are fine.
	expectValid(t, mod(FuncType{Results: []ValueType{ValueTypeI64}}, nil,
		new(BodyBuilder).I64Const(1).I64Const(2).I32Const(0).Op(OpSelect).End()))
}

func TestValidateIllegalOpcode(t *testing.T) {
	expectInvalid(t, mod(FuncType{}, nil,
		&BodyBuilder{}), "")
	body := &BodyBuilder{}
	body.buf = append(body.buf, 0x25) // unassigned opcode
	body.End()
	expectInvalid(t, mod(FuncType{}, nil, body), "illegal opcode")
}
