package wasm

import (
	"encoding/binary"
	"math"
)

// Encode serializes the module to the WebAssembly binary format. The module
// is assumed to be structurally well-formed (Encode does not validate);
// Decode(Encode(m)) reproduces an equivalent module. The encoding is written
// into one buffer sized up front (encodedBound), each length-prefixed part —
// a section, a function body — straight after room for its widest prefix,
// which closeLen then shrinks to the minimal one.
func Encode(m *Module) []byte {
	out := make([]byte, 0, encodedBound(m))
	out = append(out, magic...)
	out = append(out, version...)

	if len(m.Types) > 0 {
		var at int
		out, at = openSection(out, SectionType, len(m.Types))
		for _, t := range m.Types {
			out = append(out, 0x60)
			out = appendU32(out, uint32(len(t.Params)))
			for _, p := range t.Params {
				out = append(out, byte(p))
			}
			out = appendU32(out, uint32(len(t.Results)))
			for _, r := range t.Results {
				out = append(out, byte(r))
			}
		}
		out = closeLen(out, at)
	}
	if len(m.Imports) > 0 {
		var at int
		out, at = openSection(out, SectionImport, len(m.Imports))
		for _, imp := range m.Imports {
			out = appendName(out, imp.Module)
			out = appendName(out, imp.Name)
			out = append(out, byte(imp.Kind))
			switch imp.Kind {
			case ExternalFunc:
				out = appendU32(out, imp.Func)
			case ExternalTable:
				out = append(out, byte(imp.Table.ElemType))
				out = appendLimits(out, imp.Table.Limits)
			case ExternalMemory:
				out = appendLimits(out, imp.Memory.Limits)
			case ExternalGlobal:
				out = appendGlobalType(out, imp.Global)
			}
		}
		out = closeLen(out, at)
	}
	if len(m.Functions) > 0 {
		var at int
		out, at = openSection(out, SectionFunction, len(m.Functions))
		for _, ti := range m.Functions {
			out = appendU32(out, ti)
		}
		out = closeLen(out, at)
	}
	if len(m.Tables) > 0 {
		var at int
		out, at = openSection(out, SectionTable, len(m.Tables))
		for _, t := range m.Tables {
			out = append(out, byte(t.ElemType))
			out = appendLimits(out, t.Limits)
		}
		out = closeLen(out, at)
	}
	if len(m.Memories) > 0 {
		var at int
		out, at = openSection(out, SectionMemory, len(m.Memories))
		for _, mem := range m.Memories {
			out = appendLimits(out, mem.Limits)
		}
		out = closeLen(out, at)
	}
	if len(m.Globals) > 0 {
		var at int
		out, at = openSection(out, SectionGlobal, len(m.Globals))
		for _, g := range m.Globals {
			out = appendGlobalType(out, g.Type)
			out = appendConstExpr(out, g.Init)
		}
		out = closeLen(out, at)
	}
	if len(m.Exports) > 0 {
		var at int
		out, at = openSection(out, SectionExport, len(m.Exports))
		for _, e := range m.Exports {
			out = appendName(out, e.Name)
			out = append(out, byte(e.Kind))
			out = appendU32(out, e.Index)
		}
		out = closeLen(out, at)
	}
	if m.StartSet {
		var at int
		out, at = openLen(append(out, byte(SectionStart)))
		out = appendU32(out, m.Start)
		out = closeLen(out, at)
	}
	if len(m.Elements) > 0 {
		var at int
		out, at = openSection(out, SectionElement, len(m.Elements))
		for _, seg := range m.Elements {
			out = appendU32(out, seg.TableIndex)
			out = appendConstExpr(out, seg.Offset)
			out = appendU32(out, uint32(len(seg.Indices)))
			for _, fi := range seg.Indices {
				out = appendU32(out, fi)
			}
		}
		out = closeLen(out, at)
	}
	if len(m.Codes) > 0 {
		var at, body int
		out, at = openSection(out, SectionCode, len(m.Codes))
		for _, c := range m.Codes {
			out, body = openLen(out)
			out = appendCode(out, c)
			out = closeLen(out, body)
		}
		out = closeLen(out, at)
	}
	if len(m.Data) > 0 {
		var at int
		out, at = openSection(out, SectionData, len(m.Data))
		for _, seg := range m.Data {
			out = appendU32(out, seg.MemoryIndex)
			out = appendConstExpr(out, seg.Offset)
			out = appendU32(out, uint32(len(seg.Data)))
			out = append(out, seg.Data...)
		}
		out = closeLen(out, at)
	}
	for _, cs := range m.Customs {
		var at int
		out, at = openLen(append(out, byte(SectionCustom)))
		out = appendName(out, cs.Name)
		out = append(out, cs.Data...)
		out = closeLen(out, at)
	}
	return out
}

// maxU32Len is the widest LEB128 encoding of a u32, and maxConstExprLen the
// widest constant expression: its opcode, a ten-byte s64 and end.
const (
	maxU32Len       = 5
	maxConstExprLen = 12
)

// encodedBound is an upper bound on len(Encode(m)), with every LEB128
// integer counted at its widest, so Encode's buffer never grows.
func encodedBound(m *Module) int {
	const u = maxU32Len
	// sec is a present section's id, size and entry count.
	sec := func(count int) int {
		if count == 0 {
			return 0
		}
		return 1 + 2*u
	}
	n := len(magic) + len(version)
	n += sec(len(m.Types))
	for _, t := range m.Types {
		n += 1 + 2*u + len(t.Params) + len(t.Results)
	}
	n += sec(len(m.Imports))
	for _, imp := range m.Imports {
		// Two names and a kind, then the widest descriptor: a table's.
		n += 2*u + len(imp.Module) + len(imp.Name) + 1 + 2 + 2*u
	}
	n += sec(len(m.Functions)) + u*len(m.Functions)
	n += sec(len(m.Tables)) + (2+2*u)*len(m.Tables)
	n += sec(len(m.Memories)) + (1+2*u)*len(m.Memories)
	n += sec(len(m.Globals)) + (2+maxConstExprLen)*len(m.Globals)
	n += sec(len(m.Exports))
	for _, e := range m.Exports {
		n += 2*u + len(e.Name) + 1
	}
	if m.StartSet {
		n += 1 + 2*u
	}
	n += sec(len(m.Elements))
	for _, seg := range m.Elements {
		n += 2*u + maxConstExprLen + u*len(seg.Indices)
	}
	n += sec(len(m.Codes))
	for _, c := range m.Codes {
		// Size, group count, at most one (count, type) group per local.
		n += 2*u + (u+1)*len(c.Locals) + len(c.Body)
	}
	n += sec(len(m.Data))
	for _, seg := range m.Data {
		n += 2*u + maxConstExprLen + len(seg.Data)
	}
	for _, cs := range m.Customs {
		n += 1 + 2*u + len(cs.Name) + len(cs.Data)
	}
	return n
}

// openSection appends a section's id, room for its size and its entry
// count; closeLen(out, at) fills in the size.
func openSection(out []byte, id SectionID, count int) ([]byte, int) {
	out, at := openLen(append(out, byte(id)))
	return appendU32(out, uint32(count)), at
}

// openLen appends room for the widest length prefix and returns where the
// prefixed payload starts.
func openLen(b []byte) ([]byte, int) {
	b = append(b, 0, 0, 0, 0, 0)
	return b, len(b)
}

// closeLen writes the length of what was appended since openLen returned at
// as a minimal LEB128 prefix, moving the payload down over the room the
// prefix did not use.
func closeLen(b []byte, at int) []byte {
	n := len(b) - at
	var pfx [maxU32Len]byte
	p := appendU32(pfx[:0], uint32(n))
	dst := at - maxU32Len
	copy(b[dst:], p)
	copy(b[dst+len(p):], b[at:])
	return b[:dst+len(p)+n]
}

func appendGlobalType(b []byte, g GlobalType) []byte {
	b = append(b, byte(g.ValType))
	if g.Mutable {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendName(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendLimits(b []byte, l Limits) []byte {
	if l.HasMax {
		b = append(b, 1)
		b = appendU32(b, l.Min)
		return appendU32(b, l.Max)
	}
	b = append(b, 0)
	return appendU32(b, l.Min)
}

func appendConstExpr(b []byte, ce ConstExpr) []byte {
	switch ce.Op {
	case ConstI32:
		b = append(b, byte(OpI32Const))
		b = appendS32(b, int32(uint32(ce.Value)))
	case ConstI64:
		b = append(b, byte(OpI64Const))
		b = appendS64(b, int64(ce.Value))
	case ConstF32:
		b = append(b, byte(OpF32Const))
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(ce.Value))
		b = append(b, buf[:]...)
	case ConstF64:
		b = append(b, byte(OpF64Const))
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], ce.Value)
		b = append(b, buf[:]...)
	case ConstGlobalGet:
		b = append(b, byte(OpGlobalGet))
		b = appendU32(b, uint32(ce.Value))
	}
	return append(b, byte(OpEnd))
}

// appendCode appends a function body: its locals as runs of one type, each a
// (count, type) group, then its instructions.
func appendCode(b []byte, c Code) []byte {
	groups := 0
	for i, vt := range c.Locals {
		if i == 0 || c.Locals[i-1] != vt {
			groups++
		}
	}
	b = appendU32(b, uint32(groups))
	for i := 0; i < len(c.Locals); {
		j := i + 1
		for j < len(c.Locals) && c.Locals[j] == c.Locals[i] {
			j++
		}
		b = appendU32(b, uint32(j-i))
		b = append(b, byte(c.Locals[i]))
		i = j
	}
	return append(b, c.Body...)
}

// BodyBuilder incrementally assembles a function body instruction stream.
// It is used by the WAT assembler and by tests that construct modules
// programmatically.
type BodyBuilder struct {
	buf []byte
}

// Bytes returns the assembled body. The caller must have emitted the final
// End for the implicit function block.
func (b *BodyBuilder) Bytes() []byte { return b.buf }

// Op appends a bare opcode.
func (b *BodyBuilder) Op(op Opcode) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	return b
}

// OpU32 appends an opcode with a single u32 immediate (call, local.get, br …).
func (b *BodyBuilder) OpU32(op Opcode, v uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendU32(b.buf, v)
	return b
}

// Block appends a block/loop/if opcode with the given block type (a value
// type, or BlockTypeEmpty, or a type index >= 0 encoded as s33).
func (b *BodyBuilder) Block(op Opcode, blockType int64) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendS64(b.buf, blockType)
	return b
}

// I32Const appends an i32.const instruction.
func (b *BodyBuilder) I32Const(v int32) *BodyBuilder {
	b.buf = append(b.buf, byte(OpI32Const))
	b.buf = appendS32(b.buf, v)
	return b
}

// I64Const appends an i64.const instruction.
func (b *BodyBuilder) I64Const(v int64) *BodyBuilder {
	b.buf = append(b.buf, byte(OpI64Const))
	b.buf = appendS64(b.buf, v)
	return b
}

// F32Const appends an f32.const instruction.
func (b *BodyBuilder) F32Const(v float32) *BodyBuilder {
	b.buf = append(b.buf, byte(OpF32Const))
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
	b.buf = append(b.buf, buf[:]...)
	return b
}

// F64Const appends an f64.const instruction.
func (b *BodyBuilder) F64Const(v float64) *BodyBuilder {
	b.buf = append(b.buf, byte(OpF64Const))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	b.buf = append(b.buf, buf[:]...)
	return b
}

// MemArg appends a load/store opcode with align and offset immediates.
func (b *BodyBuilder) MemArg(op Opcode, align, offset uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = appendU32(b.buf, align)
	b.buf = appendU32(b.buf, offset)
	return b
}

// BrTable appends a br_table with the given targets and default.
func (b *BodyBuilder) BrTable(targets []uint32, def uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(OpBrTable))
	b.buf = appendU32(b.buf, uint32(len(targets)))
	for _, t := range targets {
		b.buf = appendU32(b.buf, t)
	}
	b.buf = appendU32(b.buf, def)
	return b
}

// CallIndirect appends call_indirect with type index ti on table 0.
func (b *BodyBuilder) CallIndirect(ti uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(OpCallIndirect))
	b.buf = appendU32(b.buf, ti)
	b.buf = append(b.buf, 0x00) // reserved table index
	return b
}

// MemoryOp appends memory.size or memory.grow (reserved zero immediate).
func (b *BodyBuilder) MemoryOp(op Opcode) *BodyBuilder {
	b.buf = append(b.buf, byte(op))
	b.buf = append(b.buf, 0x00)
	return b
}

// Misc appends a 0xFC-prefixed instruction. memory.copy carries two reserved
// zero bytes and memory.fill one; the saturating truncations carry none.
func (b *BodyBuilder) Misc(sub uint32) *BodyBuilder {
	b.buf = append(b.buf, byte(OpMisc))
	b.buf = appendU32(b.buf, sub)
	switch sub {
	case MiscMemoryCopy:
		b.buf = append(b.buf, 0x00, 0x00)
	case MiscMemoryFill:
		b.buf = append(b.buf, 0x00)
	}
	return b
}

// End appends the end opcode.
func (b *BodyBuilder) End() *BodyBuilder { return b.Op(OpEnd) }
