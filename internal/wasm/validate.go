package wasm

import (
	"errors"
	"fmt"
)

// Validate checks the module against the WebAssembly validation rules for
// the MVP feature set (plus sign-extension and saturating-truncation
// instructions). It returns nil if the module is valid.
func Validate(m *Module) error {
	// Imports: type indices in range; single-table/single-memory rules are
	// enforced across imports + definitions.
	for _, imp := range m.Imports {
		switch imp.Kind {
		case ExternalFunc:
			if int(imp.Func) >= len(m.Types) {
				return fmt.Errorf("wasm: import %q.%q: unknown type %d", imp.Module, imp.Name, imp.Func)
			}
		case ExternalTable:
			if !imp.Table.Limits.Valid(1 << 31) {
				return fmt.Errorf("wasm: import %q.%q: invalid table limits", imp.Module, imp.Name)
			}
		case ExternalMemory:
			if !imp.Memory.Limits.Valid(MaxMemoryPages) {
				return fmt.Errorf("wasm: import %q.%q: memory size exceeds 4GiB", imp.Module, imp.Name)
			}
		case ExternalGlobal:
			// Imported globals must be immutable in the MVP.
			if imp.Global.Mutable {
				return fmt.Errorf("wasm: import %q.%q: mutable globals cannot be imported (MVP)", imp.Module, imp.Name)
			}
		}
	}
	if m.NumImportedTables()+len(m.Tables) > 1 {
		return errors.New("wasm: multiple tables (MVP allows at most one)")
	}
	if m.NumImportedMemories()+len(m.Memories) > 1 {
		return errors.New("wasm: multiple memories (MVP allows at most one)")
	}
	for i, t := range m.Tables {
		if !t.Limits.Valid(1 << 31) {
			return fmt.Errorf("wasm: table %d: invalid limits", i)
		}
	}
	for i, mem := range m.Memories {
		if !mem.Limits.Valid(MaxMemoryPages) {
			return fmt.Errorf("wasm: memory %d: size exceeds 4GiB", i)
		}
	}

	// Function section type indices.
	for i, ti := range m.Functions {
		if int(ti) >= len(m.Types) {
			return fmt.Errorf("wasm: function %d: unknown type %d", i, ti)
		}
	}

	// Globals: initializer must be constant, reference only *imported*
	// globals, and match the declared type.
	importedGlobals := m.ImportedGlobalTypes()
	for i, g := range m.Globals {
		vt, ok := g.Init.Type(importedGlobals)
		if !ok {
			return fmt.Errorf("wasm: global %d: initializer references unknown global", i)
		}
		if g.Init.Op == ConstGlobalGet {
			gi := int(g.Init.Value)
			if gi < len(importedGlobals) && importedGlobals[gi].Mutable {
				return fmt.Errorf("wasm: global %d: initializer references mutable global", i)
			}
		}
		if vt != g.Type.ValType {
			return fmt.Errorf("wasm: global %d: initializer type %s does not match declared %s", i, vt, g.Type.ValType)
		}
	}

	// Exports: names unique, indices in range per kind.
	numFuncs := m.NumImportedFuncs() + len(m.Functions)
	numTables := m.NumImportedTables() + len(m.Tables)
	numMems := m.NumImportedMemories() + len(m.Memories)
	numGlobals := len(importedGlobals) + len(m.Globals)
	seen := map[string]bool{}
	for _, e := range m.Exports {
		if seen[e.Name] {
			return fmt.Errorf("wasm: duplicate export name %q", e.Name)
		}
		seen[e.Name] = true
		var limit int
		switch e.Kind {
		case ExternalFunc:
			limit = numFuncs
		case ExternalTable:
			limit = numTables
		case ExternalMemory:
			limit = numMems
		case ExternalGlobal:
			limit = numGlobals
		}
		if int(e.Index) >= limit {
			return fmt.Errorf("wasm: export %q: unknown %s %d", e.Name, e.Kind, e.Index)
		}
	}

	// Start function: must exist and have type [] -> [].
	if m.StartSet {
		ft, err := m.FuncTypeAt(m.Start)
		if err != nil {
			return fmt.Errorf("wasm: start: %w", err)
		}
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return fmt.Errorf("wasm: start function %d has non-empty signature %s", m.Start, ft)
		}
	}

	// Element segments: table 0 must exist; offsets are i32 consts; function
	// indices in range.
	for i, seg := range m.Elements {
		if numTables == 0 {
			return fmt.Errorf("wasm: element segment %d: no table defined", i)
		}
		if vt, ok := seg.Offset.Type(importedGlobals); !ok || vt != ValueTypeI32 {
			return fmt.Errorf("wasm: element segment %d: offset must be constant i32", i)
		}
		for _, fi := range seg.Indices {
			if int(fi) >= numFuncs {
				return fmt.Errorf("wasm: element segment %d: unknown function %d", i, fi)
			}
		}
	}

	// Data segments: memory 0 must exist; offsets are i32 consts.
	for i, seg := range m.Data {
		if numMems == 0 {
			return fmt.Errorf("wasm: data segment %d: no memory defined", i)
		}
		if vt, ok := seg.Offset.Type(importedGlobals); !ok || vt != ValueTypeI32 {
			return fmt.Errorf("wasm: data segment %d: offset must be constant i32", i)
		}
	}

	// Function bodies.
	if len(m.Codes) != len(m.Functions) {
		return fmt.Errorf("wasm: function and code counts differ (%d vs %d)", len(m.Functions), len(m.Codes))
	}
	// One validator checks every body, its stacks reset for each: one
	// allocation, its stacks' first arrays included.
	v := &bodyValidator{
		m:       m,
		hasMem:  numMems > 0,
		hasTbl:  numTables > 0,
		numFunc: numFuncs,
		numGlob: numGlobals,
	}
	v.stack, v.ctrl = v.stackBuf[:0], v.ctrlBuf[:0]
	nImported := m.NumImportedFuncs()
	for i := range m.Codes {
		ft := m.Types[m.Functions[i]]
		if err := v.validateBody(ft, &m.Codes[i]); err != nil {
			return fmt.Errorf("wasm: function %d %s: %w", nImported+i, ft, err)
		}
	}
	return nil
}

// unknownType marks a stack slot of polymorphic (unreachable) type.
const unknownType ValueType = 0

type ctrlFrame struct {
	op          Opcode // Block, Loop, If, or 0 for the implicit function body
	startTypes  []ValueType
	endTypes    []ValueType
	stackHeight int
	unreachable bool
}

// labelTypes returns the types a branch to this frame must provide:
// loop labels take the start types, all others take the end types.
func (f *ctrlFrame) labelTypes() []ValueType {
	if f.op == OpLoop {
		return f.startTypes
	}
	return f.endTypes
}

// bodyValidator type-checks function bodies. Validate makes one per module
// and resets its stacks for each body; they start in the validator's own
// arrays, and a body that outgrows them grows them for the bodies after it.
type bodyValidator struct {
	m       *Module
	params  []ValueType // the body's locals: its function's parameters,
	locals  []ValueType // then the locals it declares
	stack   []ValueType
	ctrl    []ctrlFrame
	hasMem  bool
	hasTbl  bool
	numFunc int
	numGlob int

	stackBuf [32]ValueType
	ctrlBuf  [8]ctrlFrame
}

// local returns the type of local li.
func (v *bodyValidator) local(li uint32) (ValueType, bool) {
	if int(li) < len(v.params) {
		return v.params[li], true
	}
	if i := int(li) - len(v.params); i < len(v.locals) {
		return v.locals[i], true
	}
	return 0, false
}

func (v *bodyValidator) push(t ValueType) { v.stack = append(v.stack, t) }

func (v *bodyValidator) pop() (ValueType, error) {
	cur := &v.ctrl[len(v.ctrl)-1]
	if len(v.stack) == cur.stackHeight {
		if cur.unreachable {
			return unknownType, nil
		}
		return 0, errors.New("type mismatch: stack underflow")
	}
	t := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return t, nil
}

func (v *bodyValidator) popExpect(want ValueType) (ValueType, error) {
	got, err := v.pop()
	if err != nil {
		return 0, err
	}
	if got != want && got != unknownType && want != unknownType {
		return 0, fmt.Errorf("type mismatch: expected %s, found %s", want, got)
	}
	return got, nil
}

func (v *bodyValidator) popMany(want []ValueType) error {
	for i := len(want) - 1; i >= 0; i-- {
		if _, err := v.popExpect(want[i]); err != nil {
			return err
		}
	}
	return nil
}

func (v *bodyValidator) pushMany(ts []ValueType) {
	for _, t := range ts {
		v.push(t)
	}
}

func (v *bodyValidator) pushCtrl(op Opcode, in, out []ValueType) {
	v.ctrl = append(v.ctrl, ctrlFrame{op: op, startTypes: in, endTypes: out, stackHeight: len(v.stack)})
	v.pushMany(in)
}

func (v *bodyValidator) popCtrl() (ctrlFrame, error) {
	if len(v.ctrl) == 0 {
		return ctrlFrame{}, errors.New("unbalanced end")
	}
	frame := v.ctrl[len(v.ctrl)-1]
	if err := v.popMany(frame.endTypes); err != nil {
		return ctrlFrame{}, err
	}
	if len(v.stack) != frame.stackHeight {
		return ctrlFrame{}, fmt.Errorf("type mismatch: %d values remaining on stack at end of block", len(v.stack)-frame.stackHeight)
	}
	v.ctrl = v.ctrl[:len(v.ctrl)-1]
	return frame, nil
}

func (v *bodyValidator) setUnreachable() {
	cur := &v.ctrl[len(v.ctrl)-1]
	v.stack = v.stack[:cur.stackHeight]
	cur.unreachable = true
}

func (v *bodyValidator) frameAt(depth uint32) (*ctrlFrame, error) {
	if int(depth) >= len(v.ctrl) {
		return nil, fmt.Errorf("unknown label %d (depth %d)", depth, len(v.ctrl))
	}
	return &v.ctrl[len(v.ctrl)-1-int(depth)], nil
}

// blockTypeSignature resolves an s33-encoded block type to its signature.
func (v *bodyValidator) blockTypeSignature(bt int64) (in, out []ValueType, err error) {
	if bt >= 0 {
		if int(bt) >= len(v.m.Types) {
			return nil, nil, fmt.Errorf("unknown type %d in block type", bt)
		}
		t := v.m.Types[int(bt)]
		return t.Params, t.Results, nil
	}
	if bt == BlockTypeEmpty {
		return nil, nil, nil
	}
	vt := ValueType(uint8(bt & 0x7f))
	if !vt.IsNumeric() {
		return nil, nil, fmt.Errorf("invalid block type 0x%x", uint8(bt&0x7f))
	}
	i := ValueTypeI32 - vt // the numeric types are 0x7f down to 0x7c
	return nil, numericTypes[i : i+1 : i+1], nil
}

// numericTypes backs the one-result signatures of value-typed blocks.
var numericTypes = [...]ValueType{ValueTypeI32, ValueTypeI64, ValueTypeF32, ValueTypeF64}

func (v *bodyValidator) validateBody(ft FuncType, code *Code) error {
	v.params, v.locals = ft.Params, code.Locals
	v.stack, v.ctrl = v.stack[:0], v.ctrl[:0]
	v.pushCtrl(0, nil, ft.Results)

	r := &reader{buf: code.Body}
	for r.remaining() > 0 {
		opByte, err := r.byte()
		if err != nil {
			return err
		}
		op := Opcode(opByte)
		if !knownOpcode(op) {
			return fmt.Errorf("illegal opcode 0x%x", opByte)
		}
		if err := v.step(op, r); err != nil {
			return fmt.Errorf("at body offset %d (%s): %w", r.off-1, OpcodeName(op), err)
		}
		if len(v.ctrl) == 0 {
			// The implicit function frame was popped by the final end; no
			// trailing instructions are allowed.
			if r.remaining() != 0 {
				return errors.New("instructions after function end")
			}
			return nil
		}
	}
	return errors.New("function body truncated (missing end)")
}

func (v *bodyValidator) step(op Opcode, r *reader) error {
	switch op {
	case OpUnreachable:
		v.setUnreachable()
	case OpNop:
	case OpBlock, OpLoop:
		val, n, err := readS33(r.buf[r.off:])
		if err != nil {
			return err
		}
		r.off += n
		in, out, err := v.blockTypeSignature(val)
		if err != nil {
			return err
		}
		if err := v.popMany(in); err != nil {
			return err
		}
		v.pushCtrl(op, in, out)
	case OpIf:
		val, n, err := readS33(r.buf[r.off:])
		if err != nil {
			return err
		}
		r.off += n
		if _, err := v.popExpect(ValueTypeI32); err != nil {
			return err
		}
		in, out, err := v.blockTypeSignature(val)
		if err != nil {
			return err
		}
		if err := v.popMany(in); err != nil {
			return err
		}
		v.pushCtrl(OpIf, in, out)
	case OpElse:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		if frame.op != OpIf {
			return errors.New("else without matching if")
		}
		v.pushCtrl(OpElse, frame.startTypes, frame.endTypes)
	case OpEnd:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		// An if with results and no else is invalid unless start==end types.
		if frame.op == OpIf && !typesEqual(frame.startTypes, frame.endTypes) {
			return errors.New("if without else has mismatched signature")
		}
		v.pushMany(frame.endTypes)
	case OpBr:
		depth, err := r.u32()
		if err != nil {
			return err
		}
		frame, err := v.frameAt(depth)
		if err != nil {
			return err
		}
		if err := v.popMany(frame.labelTypes()); err != nil {
			return err
		}
		v.setUnreachable()
	case OpBrIf:
		depth, err := r.u32()
		if err != nil {
			return err
		}
		if _, err := v.popExpect(ValueTypeI32); err != nil {
			return err
		}
		frame, err := v.frameAt(depth)
		if err != nil {
			return err
		}
		lt := frame.labelTypes()
		if err := v.popMany(lt); err != nil {
			return err
		}
		v.pushMany(lt)
	case OpBrTable:
		n, err := r.u32()
		if err != nil {
			return err
		}
		// Skip the n depths to the default, then read them again.
		targets := r.off
		for range n {
			if _, err := r.u32(); err != nil {
				return err
			}
		}
		def, err := r.u32()
		if err != nil {
			return err
		}
		if _, err := v.popExpect(ValueTypeI32); err != nil {
			return err
		}
		defFrame, err := v.frameAt(def)
		if err != nil {
			return err
		}
		arity := defFrame.labelTypes()
		tr := reader{buf: r.buf, off: targets}
		for range n {
			t, _ := tr.u32()
			f, err := v.frameAt(t)
			if err != nil {
				return err
			}
			if !typesEqual(f.labelTypes(), arity) {
				return errors.New("br_table targets have inconsistent label types")
			}
		}
		if err := v.popMany(arity); err != nil {
			return err
		}
		v.setUnreachable()
	case OpReturn:
		if err := v.popMany(v.ctrl[0].endTypes); err != nil {
			return err
		}
		v.setUnreachable()
	case OpCall:
		fi, err := r.u32()
		if err != nil {
			return err
		}
		if int(fi) >= v.numFunc {
			return fmt.Errorf("unknown function %d", fi)
		}
		ft, err := v.m.FuncTypeAt(fi)
		if err != nil {
			return err
		}
		if err := v.popMany(ft.Params); err != nil {
			return err
		}
		v.pushMany(ft.Results)
	case OpCallIndirect:
		ti, err := r.u32()
		if err != nil {
			return err
		}
		tbl, err := r.byte()
		if err != nil {
			return err
		}
		if tbl != 0 {
			return errors.New("call_indirect reserved byte must be zero (MVP)")
		}
		if !v.hasTbl {
			return errors.New("call_indirect without a table")
		}
		if int(ti) >= len(v.m.Types) {
			return fmt.Errorf("unknown type %d", ti)
		}
		if _, err := v.popExpect(ValueTypeI32); err != nil {
			return err
		}
		ft := v.m.Types[ti]
		if err := v.popMany(ft.Params); err != nil {
			return err
		}
		v.pushMany(ft.Results)
	case OpDrop:
		if _, err := v.pop(); err != nil {
			return err
		}
	case OpSelect:
		if _, err := v.popExpect(ValueTypeI32); err != nil {
			return err
		}
		t1, err := v.pop()
		if err != nil {
			return err
		}
		t2, err := v.pop()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return fmt.Errorf("select operands differ: %s vs %s", t1, t2)
		}
		if t1 == unknownType {
			v.push(t2)
		} else {
			v.push(t1)
		}
	case OpLocalGet, OpLocalSet, OpLocalTee:
		li, err := r.u32()
		if err != nil {
			return err
		}
		lt, ok := v.local(li)
		if !ok {
			return fmt.Errorf("unknown local %d", li)
		}
		switch op {
		case OpLocalGet:
			v.push(lt)
		case OpLocalSet:
			if _, err := v.popExpect(lt); err != nil {
				return err
			}
		case OpLocalTee:
			if _, err := v.popExpect(lt); err != nil {
				return err
			}
			v.push(lt)
		}
	case OpGlobalGet, OpGlobalSet:
		gi, err := r.u32()
		if err != nil {
			return err
		}
		gt, ok := v.m.GlobalTypeAt(gi)
		if !ok {
			return fmt.Errorf("unknown global %d", gi)
		}
		if op == OpGlobalGet {
			v.push(gt.ValType)
		} else {
			if !gt.Mutable {
				return fmt.Errorf("global %d is immutable", gi)
			}
			if _, err := v.popExpect(gt.ValType); err != nil {
				return err
			}
		}
	case OpMemorySize, OpMemoryGrow:
		res, err := r.byte()
		if err != nil {
			return err
		}
		if res != 0 {
			return errors.New("memory instruction reserved byte must be zero")
		}
		if !v.hasMem {
			return errors.New("memory instruction without a memory")
		}
		if op == OpMemoryGrow {
			if _, err := v.popExpect(ValueTypeI32); err != nil {
				return err
			}
		}
		v.push(ValueTypeI32)
	case OpI32Const:
		if _, err := r.s32(); err != nil {
			return err
		}
		v.push(ValueTypeI32)
	case OpI64Const:
		if _, err := r.s64(); err != nil {
			return err
		}
		v.push(ValueTypeI64)
	case OpF32Const:
		if _, err := r.f32(); err != nil {
			return err
		}
		v.push(ValueTypeF32)
	case OpF64Const:
		if _, err := r.f64(); err != nil {
			return err
		}
		v.push(ValueTypeF64)
	case OpMisc:
		sub, err := r.u32()
		if err != nil {
			return err
		}
		return v.stepMisc(sub, r)
	default:
		return v.stepFixed(op, r)
	}
	return nil
}

func (v *bodyValidator) stepMisc(sub uint32, r *reader) error {
	switch sub {
	case MiscI32TruncSatF32S, MiscI32TruncSatF32U:
		return v.unop(ValueTypeF32, ValueTypeI32)
	case MiscI32TruncSatF64S, MiscI32TruncSatF64U:
		return v.unop(ValueTypeF64, ValueTypeI32)
	case MiscI64TruncSatF32S, MiscI64TruncSatF32U:
		return v.unop(ValueTypeF32, ValueTypeI64)
	case MiscI64TruncSatF64S, MiscI64TruncSatF64U:
		return v.unop(ValueTypeF64, ValueTypeI64)
	case MiscMemoryCopy:
		b, err := r.bytes(2)
		if err != nil {
			return err
		}
		if b[0] != 0 || b[1] != 0 {
			return errors.New("memory.copy reserved bytes must be zero")
		}
		if !v.hasMem {
			return errors.New("memory.copy without a memory")
		}
		return v.popMany([]ValueType{ValueTypeI32, ValueTypeI32, ValueTypeI32})
	case MiscMemoryFill:
		b, err := r.byte()
		if err != nil {
			return err
		}
		if b != 0 {
			return errors.New("memory.fill reserved byte must be zero")
		}
		if !v.hasMem {
			return errors.New("memory.fill without a memory")
		}
		return v.popMany([]ValueType{ValueTypeI32, ValueTypeI32, ValueTypeI32})
	default:
		return fmt.Errorf("illegal misc opcode %d", sub)
	}
}

func (v *bodyValidator) unop(in, out ValueType) error {
	if _, err := v.popExpect(in); err != nil {
		return err
	}
	v.push(out)
	return nil
}

func (v *bodyValidator) binop(in, out ValueType) error {
	if _, err := v.popExpect(in); err != nil {
		return err
	}
	if _, err := v.popExpect(in); err != nil {
		return err
	}
	v.push(out)
	return nil
}

// memAccess validates the align/offset immediates of a load or store against
// the natural alignment (log2 of access width).
func (v *bodyValidator) memAccess(r *reader, naturalAlign uint32) error {
	align, err := r.u32()
	if err != nil {
		return err
	}
	if _, err := r.u32(); err != nil { // offset
		return err
	}
	if align > naturalAlign {
		return fmt.Errorf("alignment 2^%d exceeds natural alignment 2^%d", align, naturalAlign)
	}
	if !v.hasMem {
		return errors.New("memory access without a memory")
	}
	return nil
}

func (v *bodyValidator) load(r *reader, naturalAlign uint32, out ValueType) error {
	if err := v.memAccess(r, naturalAlign); err != nil {
		return err
	}
	if _, err := v.popExpect(ValueTypeI32); err != nil {
		return err
	}
	v.push(out)
	return nil
}

func (v *bodyValidator) store(r *reader, naturalAlign uint32, val ValueType) error {
	if err := v.memAccess(r, naturalAlign); err != nil {
		return err
	}
	if _, err := v.popExpect(val); err != nil {
		return err
	}
	if _, err := v.popExpect(ValueTypeI32); err != nil {
		return err
	}
	return nil
}

// stepFixed handles all fixed-signature numeric/memory instructions.
func (v *bodyValidator) stepFixed(op Opcode, r *reader) error {
	switch op {
	// Loads.
	case OpI32Load:
		return v.load(r, 2, ValueTypeI32)
	case OpI64Load:
		return v.load(r, 3, ValueTypeI64)
	case OpF32Load:
		return v.load(r, 2, ValueTypeF32)
	case OpF64Load:
		return v.load(r, 3, ValueTypeF64)
	case OpI32Load8S, OpI32Load8U:
		return v.load(r, 0, ValueTypeI32)
	case OpI32Load16S, OpI32Load16U:
		return v.load(r, 1, ValueTypeI32)
	case OpI64Load8S, OpI64Load8U:
		return v.load(r, 0, ValueTypeI64)
	case OpI64Load16S, OpI64Load16U:
		return v.load(r, 1, ValueTypeI64)
	case OpI64Load32S, OpI64Load32U:
		return v.load(r, 2, ValueTypeI64)
	// Stores.
	case OpI32Store:
		return v.store(r, 2, ValueTypeI32)
	case OpI64Store:
		return v.store(r, 3, ValueTypeI64)
	case OpF32Store:
		return v.store(r, 2, ValueTypeF32)
	case OpF64Store:
		return v.store(r, 3, ValueTypeF64)
	case OpI32Store8:
		return v.store(r, 0, ValueTypeI32)
	case OpI32Store16:
		return v.store(r, 1, ValueTypeI32)
	case OpI64Store8:
		return v.store(r, 0, ValueTypeI64)
	case OpI64Store16:
		return v.store(r, 1, ValueTypeI64)
	case OpI64Store32:
		return v.store(r, 2, ValueTypeI64)
	// i32 tests/comparisons.
	case OpI32Eqz:
		return v.unop(ValueTypeI32, ValueTypeI32)
	case OpI32Eq, OpI32Ne, OpI32LtS, OpI32LtU, OpI32GtS, OpI32GtU, OpI32LeS, OpI32LeU, OpI32GeS, OpI32GeU:
		return v.binop(ValueTypeI32, ValueTypeI32)
	case OpI64Eqz:
		return v.unop(ValueTypeI64, ValueTypeI32)
	case OpI64Eq, OpI64Ne, OpI64LtS, OpI64LtU, OpI64GtS, OpI64GtU, OpI64LeS, OpI64LeU, OpI64GeS, OpI64GeU:
		return v.binop(ValueTypeI64, ValueTypeI32)
	case OpF32Eq, OpF32Ne, OpF32Lt, OpF32Gt, OpF32Le, OpF32Ge:
		return v.binop(ValueTypeF32, ValueTypeI32)
	case OpF64Eq, OpF64Ne, OpF64Lt, OpF64Gt, OpF64Le, OpF64Ge:
		return v.binop(ValueTypeF64, ValueTypeI32)
	// i32 arithmetic.
	case OpI32Clz, OpI32Ctz, OpI32Popcnt:
		return v.unop(ValueTypeI32, ValueTypeI32)
	case OpI32Add, OpI32Sub, OpI32Mul, OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU,
		OpI32And, OpI32Or, OpI32Xor, OpI32Shl, OpI32ShrS, OpI32ShrU, OpI32Rotl, OpI32Rotr:
		return v.binop(ValueTypeI32, ValueTypeI32)
	case OpI64Clz, OpI64Ctz, OpI64Popcnt:
		return v.unop(ValueTypeI64, ValueTypeI64)
	case OpI64Add, OpI64Sub, OpI64Mul, OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU,
		OpI64And, OpI64Or, OpI64Xor, OpI64Shl, OpI64ShrS, OpI64ShrU, OpI64Rotl, OpI64Rotr:
		return v.binop(ValueTypeI64, ValueTypeI64)
	case OpF32Abs, OpF32Neg, OpF32Ceil, OpF32Floor, OpF32Trunc, OpF32Nearest, OpF32Sqrt:
		return v.unop(ValueTypeF32, ValueTypeF32)
	case OpF32Add, OpF32Sub, OpF32Mul, OpF32Div, OpF32Min, OpF32Max, OpF32Copysign:
		return v.binop(ValueTypeF32, ValueTypeF32)
	case OpF64Abs, OpF64Neg, OpF64Ceil, OpF64Floor, OpF64Trunc, OpF64Nearest, OpF64Sqrt:
		return v.unop(ValueTypeF64, ValueTypeF64)
	case OpF64Add, OpF64Sub, OpF64Mul, OpF64Div, OpF64Min, OpF64Max, OpF64Copysign:
		return v.binop(ValueTypeF64, ValueTypeF64)
	// Conversions.
	case OpI32WrapI64:
		return v.unop(ValueTypeI64, ValueTypeI32)
	case OpI32TruncF32S, OpI32TruncF32U:
		return v.unop(ValueTypeF32, ValueTypeI32)
	case OpI32TruncF64S, OpI32TruncF64U:
		return v.unop(ValueTypeF64, ValueTypeI32)
	case OpI64ExtendI32S, OpI64ExtendI32U:
		return v.unop(ValueTypeI32, ValueTypeI64)
	case OpI64TruncF32S, OpI64TruncF32U:
		return v.unop(ValueTypeF32, ValueTypeI64)
	case OpI64TruncF64S, OpI64TruncF64U:
		return v.unop(ValueTypeF64, ValueTypeI64)
	case OpF32ConvertI32S, OpF32ConvertI32U:
		return v.unop(ValueTypeI32, ValueTypeF32)
	case OpF32ConvertI64S, OpF32ConvertI64U:
		return v.unop(ValueTypeI64, ValueTypeF32)
	case OpF32DemoteF64:
		return v.unop(ValueTypeF64, ValueTypeF32)
	case OpF64ConvertI32S, OpF64ConvertI32U:
		return v.unop(ValueTypeI32, ValueTypeF64)
	case OpF64ConvertI64S, OpF64ConvertI64U:
		return v.unop(ValueTypeI64, ValueTypeF64)
	case OpF64PromoteF32:
		return v.unop(ValueTypeF32, ValueTypeF64)
	case OpI32ReinterpretF32:
		return v.unop(ValueTypeF32, ValueTypeI32)
	case OpI64ReinterpretF64:
		return v.unop(ValueTypeF64, ValueTypeI64)
	case OpF32ReinterpretI32:
		return v.unop(ValueTypeI32, ValueTypeF32)
	case OpF64ReinterpretI64:
		return v.unop(ValueTypeI64, ValueTypeF64)
	case OpI32Extend8S, OpI32Extend16S:
		return v.unop(ValueTypeI32, ValueTypeI32)
	case OpI64Extend8S, OpI64Extend16S, OpI64Extend32S:
		return v.unop(ValueTypeI64, ValueTypeI64)
	default:
		return fmt.Errorf("illegal opcode 0x%x", byte(op))
	}
}

func typesEqual(a, b []ValueType) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
