package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
	"unsafe"
)

// Magic and version constants of the binary format.
var (
	magic   = []byte{0x00, 0x61, 0x73, 0x6d} // "\0asm"
	version = []byte{0x01, 0x00, 0x00, 0x00}
)

// ErrNotWasm is returned when the input does not begin with the Wasm magic.
var ErrNotWasm = errors.New("wasm: magic header not detected")

// reader is a bounds-checked cursor over the module bytes.
type reader struct {
	buf []byte
	off int
	// owned marks buf as Decode's private copy of its input, whose name
	// bytes are never handed out as a slice: names are read in place.
	owned bool
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// bytes returns the next n bytes in place, capped at their length so an
// append to them never writes over what follows.
func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, errUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	v, n, err := readU32(r.buf[r.off:])
	if err != nil {
		return 0, err
	}
	r.off += n
	return v, nil
}

func (r *reader) s32() (int32, error) {
	v, n, err := readS32(r.buf[r.off:])
	if err != nil {
		return 0, err
	}
	r.off += n
	return v, nil
}

func (r *reader) s64() (int64, error) {
	v, n, err := readS64(r.buf[r.off:])
	if err != nil {
		return 0, err
	}
	r.off += n
	return v, nil
}

func (r *reader) f32() (float32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b)), nil
}

func (r *reader) f64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	if !utf8.Valid(b) {
		return "", errors.New("wasm: malformed UTF-8 encoding in name")
	}
	if r.owned && len(b) > 0 {
		return unsafe.String(&b[0], len(b)), nil
	}
	return string(b), nil
}

func (r *reader) valueType() (ValueType, error) {
	b, err := r.byte()
	if err != nil {
		return 0, err
	}
	v := ValueType(b)
	switch v {
	case ValueTypeI32, ValueTypeI64, ValueTypeF32, ValueTypeF64:
		return v, nil
	}
	return 0, fmt.Errorf("wasm: invalid value type 0x%x", b)
}

func (r *reader) limits() (Limits, error) {
	flag, err := r.byte()
	if err != nil {
		return Limits{}, err
	}
	switch flag {
	case 0x00:
		min, err := r.u32()
		if err != nil {
			return Limits{}, err
		}
		return Limits{Min: min}, nil
	case 0x01:
		min, err := r.u32()
		if err != nil {
			return Limits{}, err
		}
		max, err := r.u32()
		if err != nil {
			return Limits{}, err
		}
		return Limits{Min: min, Max: max, HasMax: true}, nil
	default:
		return Limits{}, fmt.Errorf("wasm: invalid limits flag 0x%x", flag)
	}
}

func (r *reader) tableType() (TableType, error) {
	et, err := r.byte()
	if err != nil {
		return TableType{}, err
	}
	if ValueType(et) != ValueTypeFuncref {
		return TableType{}, fmt.Errorf("wasm: invalid element type 0x%x", et)
	}
	lim, err := r.limits()
	if err != nil {
		return TableType{}, err
	}
	return TableType{ElemType: ValueTypeFuncref, Limits: lim}, nil
}

func (r *reader) globalType() (GlobalType, error) {
	vt, err := r.valueType()
	if err != nil {
		return GlobalType{}, err
	}
	mut, err := r.byte()
	if err != nil {
		return GlobalType{}, err
	}
	if mut > 1 {
		return GlobalType{}, fmt.Errorf("wasm: invalid mutability flag 0x%x", mut)
	}
	return GlobalType{ValType: vt, Mutable: mut == 1}, nil
}

// constExpr decodes a constant initializer expression terminated by end.
func (r *reader) constExpr() (ConstExpr, error) {
	op, err := r.byte()
	if err != nil {
		return ConstExpr{}, err
	}
	var ce ConstExpr
	switch Opcode(op) {
	case OpI32Const:
		v, err := r.s32()
		if err != nil {
			return ConstExpr{}, err
		}
		ce = ConstExpr{Op: ConstI32, Value: uint64(uint32(v))}
	case OpI64Const:
		v, err := r.s64()
		if err != nil {
			return ConstExpr{}, err
		}
		ce = ConstExpr{Op: ConstI64, Value: uint64(v)}
	case OpF32Const:
		v, err := r.f32()
		if err != nil {
			return ConstExpr{}, err
		}
		ce = ConstExpr{Op: ConstF32, Value: uint64(math.Float32bits(v))}
	case OpF64Const:
		v, err := r.f64()
		if err != nil {
			return ConstExpr{}, err
		}
		ce = ConstExpr{Op: ConstF64, Value: math.Float64bits(v)}
	case OpGlobalGet:
		idx, err := r.u32()
		if err != nil {
			return ConstExpr{}, err
		}
		ce = ConstExpr{Op: ConstGlobalGet, Value: uint64(idx)}
	default:
		return ConstExpr{}, fmt.Errorf("wasm: illegal opcode 0x%x in constant expression", op)
	}
	end, err := r.byte()
	if err != nil {
		return ConstExpr{}, err
	}
	if Opcode(end) != OpEnd {
		return ConstExpr{}, errors.New("wasm: constant expression not terminated by end")
	}
	return ce, nil
}

// decodedModule is the allocation Decode builds a module in. The MVP allows
// one memory, which the handler modules a lazy deploy serves declare, so it
// carries room for it.
type decodedModule struct {
	Module
	memory [1]MemoryType
}

// readValueTypes reads a vector of value types, appending them to vts and
// returning them as a slice of it. vts must have room for them all, so one
// section's vectors share its backing array; an empty vector is nil.
func readValueTypes(r *reader, vts *[]ValueType) ([]ValueType, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	start := len(*vts)
	for range n {
		vt, err := r.valueType()
		if err != nil {
			return nil, err
		}
		*vts = append(*vts, vt)
	}
	if len(*vts) == start {
		return nil, nil
	}
	return (*vts)[start:len(*vts):len(*vts)], nil
}

// countLocals reads a body's local groups and returns how many locals they
// declare, failing past MaxFunctionLocals.
func countLocals(r *reader) (int, error) {
	groups, err := r.u32()
	if err != nil {
		return 0, err
	}
	total := 0
	for range groups {
		cnt, err := r.u32()
		if err != nil {
			return 0, err
		}
		if _, err := r.valueType(); err != nil {
			return 0, err
		}
		total += int(cnt)
		if total > MaxFunctionLocals {
			return 0, fmt.Errorf("too many locals (%d)", total)
		}
	}
	return total, nil
}

// Decode parses a binary WebAssembly module. The returned module is
// structurally well-formed but not yet validated; call Validate.
//
// The module keeps one copy of b: its bodies, data segments and custom
// payloads are slices of it, and its names share its bytes. Its signatures'
// value types share one backing array and its bodies' locals another, and its
// memory lives in its own allocation.
func Decode(b []byte) (*Module, error) {
	r := &reader{buf: b}
	hdr, err := r.bytes(4)
	if err != nil || string(hdr) != string(magic) {
		return nil, ErrNotWasm
	}
	ver, err := r.bytes(4)
	if err != nil {
		return nil, errUnexpectedEOF
	}
	if string(ver) != string(version) {
		return nil, fmt.Errorf("wasm: unknown binary version %x", ver)
	}

	r = &reader{buf: append([]byte(nil), b...), off: r.off, owned: true}
	dm := &decodedModule{}
	m := &dm.Module
	lastSection := SectionID(0)

	for r.remaining() > 0 {
		idByte, err := r.byte()
		if err != nil {
			return nil, decodeError(r.off, err)
		}
		id := SectionID(idByte)
		size, err := r.u32()
		if err != nil {
			return nil, decodeError(r.off, err)
		}
		payload, err := r.bytes(int(size))
		if err != nil {
			return nil, decodeError(r.off, fmt.Errorf("section %d: %w", id, err))
		}
		if id != SectionCustom {
			if id > SectionData {
				return nil, fmt.Errorf("wasm: malformed section id %d", id)
			}
			if id <= lastSection {
				return nil, fmt.Errorf("wasm: unexpected section %d after %d (out of order or duplicate)", id, lastSection)
			}
			lastSection = id
		}
		sr := &reader{buf: payload, owned: true}
		if err := decodeSection(dm, id, sr); err != nil {
			return nil, fmt.Errorf("wasm: section %d: %w", id, err)
		}
		if id != SectionCustom && sr.remaining() != 0 {
			return nil, fmt.Errorf("wasm: section %d: %d trailing bytes", id, sr.remaining())
		}
	}
	if len(m.Codes) != len(m.Functions) {
		return nil, fmt.Errorf("wasm: function and code section have inconsistent lengths (%d vs %d)",
			len(m.Functions), len(m.Codes))
	}
	return m, nil
}

func decodeSection(dm *decodedModule, id SectionID, r *reader) error {
	m := &dm.Module
	switch id {
	case SectionCustom:
		return decodeCustomSection(m, r)
	case SectionType:
		return decodeTypeSection(m, r)
	case SectionImport:
		return decodeImportSection(m, r)
	case SectionFunction:
		return decodeFunctionSection(m, r)
	case SectionTable:
		return decodeTableSection(m, r)
	case SectionMemory:
		return decodeMemorySection(dm, r)
	case SectionGlobal:
		return decodeGlobalSection(m, r)
	case SectionExport:
		return decodeExportSection(m, r)
	case SectionStart:
		idx, err := r.u32()
		if err != nil {
			return err
		}
		m.StartSet = true
		m.Start = idx
		return nil
	case SectionElement:
		return decodeElementSection(m, r)
	case SectionCode:
		return decodeCodeSection(m, r)
	case SectionData:
		return decodeDataSection(m, r)
	default:
		return fmt.Errorf("malformed section id %d", id)
	}
}

func decodeCustomSection(m *Module, r *reader) error {
	name, err := r.name()
	if err != nil {
		return err
	}
	rest, err := r.bytes(r.remaining())
	if err != nil {
		return err
	}
	m.Customs = append(m.Customs, CustomSection{Name: name, Data: rest})
	return nil
}

func decodeTypeSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Types = make([]FuncType, 0, clampPrealloc(n))
	// Every parameter and result takes a byte of the section.
	vts := make([]ValueType, 0, r.remaining())
	for i := uint32(0); i < n; i++ {
		form, err := r.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("type %d: invalid form 0x%x", i, form)
		}
		var ft FuncType
		if ft.Params, err = readValueTypes(r, &vts); err != nil {
			return err
		}
		if ft.Results, err = readValueTypes(r, &vts); err != nil {
			return err
		}
		m.Types = append(m.Types, ft)
	}
	return nil
}

func decodeImportSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Imports = make([]Import, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		mod, err := r.name()
		if err != nil {
			return err
		}
		name, err := r.name()
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		imp := Import{Module: mod, Name: name, Kind: ExternalKind(kind)}
		switch imp.Kind {
		case ExternalFunc:
			if imp.Func, err = r.u32(); err != nil {
				return err
			}
		case ExternalTable:
			if imp.Table, err = r.tableType(); err != nil {
				return err
			}
		case ExternalMemory:
			lim, err := r.limits()
			if err != nil {
				return err
			}
			imp.Memory = MemoryType{Limits: lim}
		case ExternalGlobal:
			if imp.Global, err = r.globalType(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("import %d: malformed import kind %d", i, kind)
		}
		m.Imports = append(m.Imports, imp)
	}
	return nil
}

func decodeFunctionSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Functions = make([]uint32, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		ti, err := r.u32()
		if err != nil {
			return err
		}
		m.Functions = append(m.Functions, ti)
	}
	return nil
}

func decodeTableSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Tables = make([]TableType, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		tt, err := r.tableType()
		if err != nil {
			return err
		}
		m.Tables = append(m.Tables, tt)
	}
	return nil
}

func decodeMemorySection(dm *decodedModule, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m := &dm.Module
	if n == 1 {
		m.Memories = dm.memory[:0]
	} else if n > 1 {
		m.Memories = make([]MemoryType, 0, clampPrealloc(n))
	}
	for i := uint32(0); i < n; i++ {
		lim, err := r.limits()
		if err != nil {
			return err
		}
		m.Memories = append(m.Memories, MemoryType{Limits: lim})
	}
	return nil
}

func decodeGlobalSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Globals = make([]Global, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		gt, err := r.globalType()
		if err != nil {
			return err
		}
		init, err := r.constExpr()
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, Global{Type: gt, Init: init})
	}
	return nil
}

func decodeExportSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Exports = make([]Export, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		name, err := r.name()
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		if kind > byte(ExternalGlobal) {
			return fmt.Errorf("export %q: malformed export kind %d", name, kind)
		}
		idx, err := r.u32()
		if err != nil {
			return err
		}
		m.Exports = append(m.Exports, Export{Name: name, Kind: ExternalKind(kind), Index: idx})
	}
	return nil
}

func decodeElementSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Elements = make([]ElementSegment, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		ti, err := r.u32()
		if err != nil {
			return err
		}
		if ti != 0 {
			return fmt.Errorf("element segment %d: MVP requires table index 0, got %d", i, ti)
		}
		off, err := r.constExpr()
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		seg := ElementSegment{TableIndex: ti, Offset: off, Indices: make([]uint32, 0, clampPrealloc(cnt))}
		for j := uint32(0); j < cnt; j++ {
			fi, err := r.u32()
			if err != nil {
				return err
			}
			seg.Indices = append(seg.Indices, fi)
		}
		m.Elements = append(m.Elements, seg)
	}
	return nil
}

func decodeCodeSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Codes = make([]Code, 0, clampPrealloc(n))
	// Frame every body and count its locals, then fill them in from one
	// array.
	locals := 0
	for i := uint32(0); i < n; i++ {
		size, err := r.u32()
		if err != nil {
			return err
		}
		body, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		cnt, err := countLocals(&reader{buf: body})
		if err != nil {
			return fmt.Errorf("function %d: %w", i, err)
		}
		locals += cnt
		m.Codes = append(m.Codes, Code{Body: body})
	}
	vts := make([]ValueType, 0, locals)
	for i := range m.Codes {
		code := &m.Codes[i]
		br := &reader{buf: code.Body}
		start := len(vts)
		groups, _ := br.u32()
		for range groups {
			cnt, _ := br.u32()
			vt, _ := br.valueType()
			for range cnt {
				vts = append(vts, vt)
			}
		}
		if len(vts) > start {
			code.Locals = vts[start:len(vts):len(vts)]
		}
		rest := br.buf[br.off:]
		if len(rest) == 0 || Opcode(rest[len(rest)-1]) != OpEnd {
			return fmt.Errorf("function %d: body does not end with end opcode", i)
		}
		code.Body = rest
	}
	return nil
}

func decodeDataSection(m *Module, r *reader) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.Data = make([]DataSegment, 0, clampPrealloc(n))
	for i := uint32(0); i < n; i++ {
		mi, err := r.u32()
		if err != nil {
			return err
		}
		if mi != 0 {
			return fmt.Errorf("data segment %d: MVP requires memory index 0, got %d", i, mi)
		}
		off, err := r.constExpr()
		if err != nil {
			return err
		}
		size, err := r.u32()
		if err != nil {
			return err
		}
		data, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		m.Data = append(m.Data, DataSegment{MemoryIndex: mi, Offset: off, Data: data})
	}
	return nil
}

// clampPrealloc bounds slice preallocation against hostile section counts:
// a malformed module may claim billions of entries while carrying only a few
// bytes of payload. Decoding still reads exactly `n` entries (and fails on
// truncation); only the optimistic capacity is capped.
func clampPrealloc(n uint32) uint32 {
	const max = 4096
	if n > max {
		return max
	}
	return n
}
