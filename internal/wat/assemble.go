package wat

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"wasmcontainers/internal/wasm"
)

// Compile assembles WebAssembly text format source into a validated module.
func Compile(src string) (*wasm.Module, error) {
	m, err := Assemble(src)
	if err != nil {
		return nil, err
	}
	if err := wasm.Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// CompileToBinary assembles and encodes the source to wasm binary bytes.
func CompileToBinary(src string) ([]byte, error) {
	m, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return wasm.Encode(m), nil
}

// Assemble translates WAT source into an (unvalidated) module.
func Assemble(src string) (*wasm.Module, error) {
	top, err := parseAll(src)
	if err != nil {
		return nil, err
	}
	var fields []*sexpr
	if len(top) == 1 && top[0].head() == "module" {
		fields = top[0].items[1:]
		// Skip an optional module name.
		if len(fields) > 0 && !fields[0].isList && strings.HasPrefix(fields[0].atom, "$") {
			fields = fields[1:]
		}
	} else {
		fields = top
	}
	a := newAssembler()
	if err := a.collect(fields); err != nil {
		return nil, err
	}
	if err := a.assembleBodies(); err != nil {
		return nil, err
	}
	// Emit a "name" custom section from the $identifiers so traps and tools
	// can report symbolic function names.
	if len(a.funcNames) > 0 {
		nm := wasm.NameMap{FuncNames: make(map[uint32]string, len(a.funcNames))}
		for name, idx := range a.funcNames {
			nm.FuncNames[idx] = strings.TrimPrefix(name, "$")
		}
		wasm.EncodeNameSection(a.m, nm)
	}
	return a.m, nil
}

type funcDecl struct {
	name       string
	typeIdx    uint32
	paramNames []string
	localNames []string
	locals     []wasm.ValueType
	body       []*sexpr
	node       *sexpr
}

type assembler struct {
	m *wasm.Module

	typeNames   map[string]uint32
	funcNames   map[string]uint32
	globalNames map[string]uint32
	tableNames  map[string]uint32
	memNames    map[string]uint32

	numImportedFuncs   int
	numImportedGlobals int
	decls              []*funcDecl

	// deferred element/data segments whose function names resolve after all
	// funcs are collected.
	elemDefs []*sexpr
	startDef *sexpr
}

func newAssembler() *assembler {
	return &assembler{
		m:           &wasm.Module{},
		typeNames:   make(map[string]uint32),
		funcNames:   make(map[string]uint32),
		globalNames: make(map[string]uint32),
		tableNames:  make(map[string]uint32),
		memNames:    make(map[string]uint32),
	}
}

func errAt(s *sexpr, format string, args ...interface{}) error {
	return fmt.Errorf("wat: line %d:%d: %s", s.line, s.col, fmt.Sprintf(format, args...))
}

// collect performs the first pass: declarations and index assignment.
func (a *assembler) collect(fields []*sexpr) error {
	// Types first so (type $x) references resolve regardless of order.
	for _, f := range fields {
		if f.head() == "type" {
			if err := a.collectType(f); err != nil {
				return err
			}
		}
	}
	// Imports establish the leading part of each index space.
	for _, f := range fields {
		if f.head() == "import" {
			if err := a.collectImport(f); err != nil {
				return err
			}
		}
	}
	for _, f := range fields {
		switch f.head() {
		case "type", "import":
			// done
		case "func":
			if err := a.collectFunc(f); err != nil {
				return err
			}
		case "memory":
			if err := a.collectMemory(f); err != nil {
				return err
			}
		case "table":
			if err := a.collectTable(f); err != nil {
				return err
			}
		case "global":
			if err := a.collectGlobal(f); err != nil {
				return err
			}
		case "export":
			if err := a.collectExport(f); err != nil {
				return err
			}
		case "start":
			a.startDef = f
		case "elem":
			a.elemDefs = append(a.elemDefs, f)
		case "data":
			if err := a.collectData(f); err != nil {
				return err
			}
		default:
			return errAt(f, "unsupported module field %q", f.head())
		}
	}
	// Resolve deferred elems and start.
	for _, f := range a.elemDefs {
		if err := a.collectElem(f); err != nil {
			return err
		}
	}
	if a.startDef != nil {
		idx, err := a.funcIndex(a.startDef.arg(1))
		if err != nil {
			return err
		}
		a.m.StartSet = true
		a.m.Start = idx
	}
	return nil
}

func (a *assembler) collectType(f *sexpr) error {
	items := f.items[1:]
	name := ""
	if len(items) > 0 && !items[0].isList && strings.HasPrefix(items[0].atom, "$") {
		name = items[0].atom
		items = items[1:]
	}
	if len(items) != 1 || items[0].head() != "func" {
		return errAt(f, "type must contain a (func ...) form")
	}
	ft, _, err := a.parseFuncSig(items[0].items[1:])
	if err != nil {
		return err
	}
	idx := uint32(len(a.m.Types))
	a.m.Types = append(a.m.Types, ft)
	if name != "" {
		a.typeNames[name] = idx
	}
	return nil
}

// parseFuncSig parses (param ...)* (result ...)* forms, returning the
// signature and parameter names (empty string for unnamed).
func (a *assembler) parseFuncSig(items []*sexpr) (wasm.FuncType, []string, error) {
	var ft wasm.FuncType
	var names []string
	for _, it := range items {
		switch it.head() {
		case "param":
			args := it.items[1:]
			if len(args) >= 2 && !args[0].isList && strings.HasPrefix(args[0].atom, "$") {
				vt, err := valueType(args[1])
				if err != nil {
					return ft, nil, err
				}
				names = append(names, args[0].atom)
				ft.Params = append(ft.Params, vt)
			} else {
				for _, t := range args {
					vt, err := valueType(t)
					if err != nil {
						return ft, nil, err
					}
					names = append(names, "")
					ft.Params = append(ft.Params, vt)
				}
			}
		case "result":
			for _, t := range it.items[1:] {
				vt, err := valueType(t)
				if err != nil {
					return ft, nil, err
				}
				ft.Results = append(ft.Results, vt)
			}
		default:
			return ft, nil, errAt(it, "expected (param ...) or (result ...), got %q", it.head())
		}
	}
	return ft, names, nil
}

func valueType(s *sexpr) (wasm.ValueType, error) {
	switch s.atom {
	case "i32":
		return wasm.ValueTypeI32, nil
	case "i64":
		return wasm.ValueTypeI64, nil
	case "f32":
		return wasm.ValueTypeF32, nil
	case "f64":
		return wasm.ValueTypeF64, nil
	}
	return 0, errAt(s, "unknown value type %q", s.atom)
}

// typeIndexFor finds or creates a type index for the signature.
func (a *assembler) typeIndexFor(ft wasm.FuncType) uint32 {
	for i, t := range a.m.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	a.m.Types = append(a.m.Types, ft)
	return uint32(len(a.m.Types) - 1)
}

func (a *assembler) collectImport(f *sexpr) error {
	items := f.items[1:]
	if len(items) != 3 || !items[0].isStr || !items[1].isStr || items[2].head() == "" {
		return errAt(f, `import must be (import "mod" "name" <desc>)`)
	}
	mod, err := nameOf(items[0])
	if err != nil {
		return err
	}
	name, err := nameOf(items[1])
	if err != nil {
		return err
	}
	desc := items[2]
	imp := wasm.Import{Module: mod, Name: name}
	descItems := desc.items[1:]
	var id string
	if len(descItems) > 0 && !descItems[0].isList && strings.HasPrefix(descItems[0].atom, "$") {
		id = descItems[0].atom
		descItems = descItems[1:]
	}
	switch desc.head() {
	case "func":
		imp.Kind = wasm.ExternalFunc
		if len(descItems) == 1 && descItems[0].head() == "type" {
			ti, err := a.typeIndex(descItems[0].arg(1))
			if err != nil {
				return err
			}
			imp.Func = ti
		} else {
			ft, _, err := a.parseFuncSig(descItems)
			if err != nil {
				return err
			}
			imp.Func = a.typeIndexFor(ft)
		}
		if id != "" {
			a.funcNames[id] = uint32(a.numImportedFuncs)
		}
		a.numImportedFuncs++
	case "memory":
		imp.Kind = wasm.ExternalMemory
		lim, err := parseLimits(descItems)
		if err != nil {
			return err
		}
		imp.Memory = wasm.MemoryType{Limits: lim}
		if id != "" {
			a.memNames[id] = 0
		}
	case "table":
		imp.Kind = wasm.ExternalTable
		if len(descItems) < 1 {
			return errAt(desc, "table import needs limits and element type")
		}
		lim, err := parseLimits(descItems[:len(descItems)-1])
		if err != nil {
			return err
		}
		imp.Table = wasm.TableType{ElemType: wasm.ValueTypeFuncref, Limits: lim}
		if id != "" {
			a.tableNames[id] = 0
		}
	case "global":
		imp.Kind = wasm.ExternalGlobal
		if len(descItems) != 1 {
			return errAt(desc, "global import needs one type")
		}
		gt, err := parseGlobalType(descItems[0])
		if err != nil {
			return err
		}
		imp.Global = gt
		if id != "" {
			a.globalNames[id] = uint32(a.numImportedGlobals)
		}
		a.numImportedGlobals++
	default:
		return errAt(desc, "unsupported import kind %q", desc.head())
	}
	a.m.Imports = append(a.m.Imports, imp)
	return nil
}

// inlineExports consumes leading (export "name") forms, exporting idx of
// kind under each name, and returns the items after them.
func (a *assembler) inlineExports(items []*sexpr, kind wasm.ExternalKind, idx uint32) ([]*sexpr, error) {
	for len(items) > 0 && items[0].head() == "export" {
		name, err := nameOf(items[0].arg(1))
		if err != nil {
			return nil, err
		}
		a.m.Exports = append(a.m.Exports, wasm.Export{Name: name, Kind: kind, Index: idx})
		items = items[1:]
	}
	return items, nil
}

// nameOf reads an import or export name: a string of valid UTF-8, as the
// binary format requires.
func nameOf(s *sexpr) (string, error) {
	if !s.isStr || !utf8.ValidString(s.str) {
		return "", errAt(s, "expected a UTF-8 name string")
	}
	return s.str, nil
}

func parseLimits(items []*sexpr) (wasm.Limits, error) {
	var lim wasm.Limits
	if len(items) < 1 {
		return lim, fmt.Errorf("wat: limits require at least a minimum")
	}
	min, err := parseUint32(items[0])
	if err != nil {
		return lim, err
	}
	lim.Min = min
	if len(items) >= 2 && !items[1].isList {
		max, err := parseUint32(items[1])
		if err != nil {
			return lim, err
		}
		lim.Max = max
		lim.HasMax = true
	}
	return lim, nil
}

func parseGlobalType(s *sexpr) (wasm.GlobalType, error) {
	if s.isList && s.head() == "mut" {
		vt, err := valueType(s.arg(1))
		if err != nil {
			return wasm.GlobalType{}, err
		}
		return wasm.GlobalType{ValType: vt, Mutable: true}, nil
	}
	vt, err := valueType(s)
	if err != nil {
		return wasm.GlobalType{}, err
	}
	return wasm.GlobalType{ValType: vt}, nil
}

func (a *assembler) collectFunc(f *sexpr) error {
	items := f.items[1:]
	d := &funcDecl{node: f}
	if len(items) > 0 && !items[0].isList && strings.HasPrefix(items[0].atom, "$") {
		d.name = items[0].atom
		items = items[1:]
	}
	fidx := uint32(a.numImportedFuncs + len(a.decls))
	// Inline exports.
	items, err := a.inlineExports(items, wasm.ExternalFunc, fidx)
	if err != nil {
		return err
	}
	// Signature: explicit (type $t) and/or inline params/results.
	var ft wasm.FuncType
	var paramNames []string
	if len(items) > 0 && items[0].head() == "type" {
		ti, err := a.typeIndex(items[0].arg(1))
		if err != nil {
			return err
		}
		if int(ti) >= len(a.m.Types) {
			return errAt(items[0], "unknown type %d", ti)
		}
		ft = a.m.Types[ti]
		d.typeIdx = ti
		items = items[1:]
		paramNames = make([]string, len(ft.Params))
		// Inline param names may still follow; consume matching forms.
		var sigItems []*sexpr
		for len(items) > 0 && (items[0].head() == "param" || items[0].head() == "result") {
			sigItems = append(sigItems, items[0])
			items = items[1:]
		}
		if len(sigItems) > 0 {
			ift, names, err := a.parseFuncSig(sigItems)
			if err != nil {
				return err
			}
			if !ift.Equal(ft) {
				return errAt(f, "inline signature does not match (type) use")
			}
			paramNames = names
		}
	} else {
		var sigItems []*sexpr
		for len(items) > 0 && (items[0].head() == "param" || items[0].head() == "result") {
			sigItems = append(sigItems, items[0])
			items = items[1:]
		}
		var err error
		ft, paramNames, err = a.parseFuncSig(sigItems)
		if err != nil {
			return err
		}
		d.typeIdx = a.typeIndexFor(ft)
	}
	d.paramNames = paramNames
	// Locals.
	for len(items) > 0 && items[0].head() == "local" {
		args := items[0].items[1:]
		if len(args) >= 2 && !args[0].isList && strings.HasPrefix(args[0].atom, "$") {
			vt, err := valueType(args[1])
			if err != nil {
				return err
			}
			d.localNames = append(d.localNames, args[0].atom)
			d.locals = append(d.locals, vt)
		} else {
			for _, t := range args {
				vt, err := valueType(t)
				if err != nil {
					return err
				}
				d.localNames = append(d.localNames, "")
				d.locals = append(d.locals, vt)
			}
		}
		items = items[1:]
	}
	d.body = items
	if d.name != "" {
		a.funcNames[d.name] = fidx
	}
	a.decls = append(a.decls, d)
	a.m.Functions = append(a.m.Functions, d.typeIdx)
	return nil
}

func (a *assembler) collectMemory(f *sexpr) error {
	items := f.items[1:]
	if len(items) > 0 && !items[0].isList && strings.HasPrefix(items[0].atom, "$") {
		a.memNames[items[0].atom] = 0
		items = items[1:]
	}
	items, err := a.inlineExports(items, wasm.ExternalMemory, 0)
	if err != nil {
		return err
	}
	lim, err := parseLimits(items)
	if err != nil {
		return errAt(f, "memory: %v", err)
	}
	a.m.Memories = append(a.m.Memories, wasm.MemoryType{Limits: lim})
	return nil
}

func (a *assembler) collectTable(f *sexpr) error {
	items := f.items[1:]
	if len(items) > 0 && !items[0].isList && strings.HasPrefix(items[0].atom, "$") {
		a.tableNames[items[0].atom] = 0
		items = items[1:]
	}
	items, err := a.inlineExports(items, wasm.ExternalTable, 0)
	if err != nil {
		return err
	}
	// Trailing "funcref" atom.
	if len(items) > 0 && items[len(items)-1].atom == "funcref" {
		items = items[:len(items)-1]
	}
	lim, err := parseLimits(items)
	if err != nil {
		return errAt(f, "table: %v", err)
	}
	a.m.Tables = append(a.m.Tables, wasm.TableType{ElemType: wasm.ValueTypeFuncref, Limits: lim})
	return nil
}

func (a *assembler) collectGlobal(f *sexpr) error {
	items := f.items[1:]
	name := ""
	if len(items) > 0 && !items[0].isList && strings.HasPrefix(items[0].atom, "$") {
		name = items[0].atom
		items = items[1:]
	}
	idx := uint32(a.numImportedGlobals + len(a.m.Globals))
	items, err := a.inlineExports(items, wasm.ExternalGlobal, idx)
	if err != nil {
		return err
	}
	if len(items) != 2 {
		return errAt(f, "global needs a type and an initializer")
	}
	gt, err := parseGlobalType(items[0])
	if err != nil {
		return err
	}
	init, err := a.constExpr(items[1])
	if err != nil {
		return err
	}
	a.m.Globals = append(a.m.Globals, wasm.Global{Type: gt, Init: init})
	if name != "" {
		a.globalNames[name] = idx
	}
	return nil
}

func (a *assembler) constExpr(s *sexpr) (wasm.ConstExpr, error) {
	if !s.isList || len(s.items) < 1 {
		return wasm.ConstExpr{}, errAt(s, "expected constant expression")
	}
	switch s.head() {
	case "i32.const":
		v, err := parseInt32(s.arg(1))
		if err != nil {
			return wasm.ConstExpr{}, err
		}
		return wasm.I32Const(v), nil
	case "i64.const":
		v, err := parseInt64(s.arg(1))
		if err != nil {
			return wasm.ConstExpr{}, err
		}
		return wasm.I64Const(v), nil
	case "f32.const":
		v, err := parseFloat(s.arg(1))
		if err != nil {
			return wasm.ConstExpr{}, err
		}
		return wasm.ConstExpr{Op: wasm.ConstF32, Value: uint64(math.Float32bits(float32(v)))}, nil
	case "f64.const":
		v, err := parseFloat(s.arg(1))
		if err != nil {
			return wasm.ConstExpr{}, err
		}
		return wasm.ConstExpr{Op: wasm.ConstF64, Value: math.Float64bits(v)}, nil
	case "global.get":
		gi, err := a.globalIndex(s.arg(1))
		if err != nil {
			return wasm.ConstExpr{}, err
		}
		return wasm.GlobalGet(gi), nil
	}
	return wasm.ConstExpr{}, errAt(s, "unsupported constant expression %q", s.head())
}

func (a *assembler) collectExport(f *sexpr) error {
	items := f.items[1:]
	if len(items) != 2 || !items[0].isStr || !items[1].isList {
		return errAt(f, `export must be (export "name" (<kind> <idx>))`)
	}
	name, err := nameOf(items[0])
	if err != nil {
		return err
	}
	desc := items[1]
	var kind wasm.ExternalKind
	var idx uint32
	switch desc.head() {
	case "func":
		kind = wasm.ExternalFunc
		idx, err = a.funcIndex(desc.arg(1))
	case "memory":
		kind = wasm.ExternalMemory
		idx = 0
	case "table":
		kind = wasm.ExternalTable
		idx = 0
	case "global":
		kind = wasm.ExternalGlobal
		idx, err = a.globalIndex(desc.arg(1))
	default:
		return errAt(desc, "unsupported export kind %q", desc.head())
	}
	if err != nil {
		return err
	}
	a.m.Exports = append(a.m.Exports, wasm.Export{Name: name, Kind: kind, Index: idx})
	return nil
}

func (a *assembler) collectElem(f *sexpr) error {
	items := f.items[1:]
	if len(items) < 1 {
		return errAt(f, "elem needs an offset")
	}
	off, err := a.constExpr(items[0])
	if err != nil {
		return err
	}
	var indices []uint32
	for _, it := range items[1:] {
		if it.atom == "func" {
			continue
		}
		fi, err := a.funcIndex(it)
		if err != nil {
			return err
		}
		indices = append(indices, fi)
	}
	a.m.Elements = append(a.m.Elements, wasm.ElementSegment{Offset: off, Indices: indices})
	return nil
}

func (a *assembler) collectData(f *sexpr) error {
	items := f.items[1:]
	if len(items) < 1 {
		return errAt(f, "data needs an offset")
	}
	off, err := a.constExpr(items[0])
	if err != nil {
		return err
	}
	var data []byte
	for _, it := range items[1:] {
		if !it.isStr {
			return errAt(it, "data segment contents must be strings")
		}
		data = append(data, it.str...)
	}
	a.m.Data = append(a.m.Data, wasm.DataSegment{Offset: off, Data: data})
	return nil
}

// Index resolution helpers.

func (a *assembler) typeIndex(s *sexpr) (uint32, error) {
	if strings.HasPrefix(s.atom, "$") {
		if i, ok := a.typeNames[s.atom]; ok {
			return i, nil
		}
		return 0, errAt(s, "unknown type %s", s.atom)
	}
	return parseUint32(s)
}

func (a *assembler) funcIndex(s *sexpr) (uint32, error) {
	if strings.HasPrefix(s.atom, "$") {
		if i, ok := a.funcNames[s.atom]; ok {
			return i, nil
		}
		return 0, errAt(s, "unknown function %s", s.atom)
	}
	return parseUint32(s)
}

func (a *assembler) globalIndex(s *sexpr) (uint32, error) {
	if strings.HasPrefix(s.atom, "$") {
		if i, ok := a.globalNames[s.atom]; ok {
			return i, nil
		}
		return 0, errAt(s, "unknown global %s", s.atom)
	}
	return parseUint32(s)
}

// Number parsing with underscores and hex support.

func cleanNum(s string) string { return strings.ReplaceAll(s, "_", "") }

func parseUint32(s *sexpr) (uint32, error) {
	if s.isList {
		return 0, errAt(s, "expected integer")
	}
	v, err := strconv.ParseUint(cleanNum(s.atom), 0, 32)
	if err != nil {
		return 0, errAt(s, "invalid integer %q", s.atom)
	}
	return uint32(v), nil
}

func parseInt32(s *sexpr) (int32, error) {
	t := cleanNum(s.atom)
	if v, err := strconv.ParseInt(t, 0, 32); err == nil {
		return int32(v), nil
	}
	// Allow unsigned forms up to MaxUint32 (e.g. 0xffffffff).
	if v, err := strconv.ParseUint(t, 0, 32); err == nil {
		return int32(v), nil
	}
	return 0, errAt(s, "invalid i32 literal %q", s.atom)
}

func parseInt64(s *sexpr) (int64, error) {
	t := cleanNum(s.atom)
	if v, err := strconv.ParseInt(t, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(t, 0, 64); err == nil {
		return int64(v), nil
	}
	return 0, errAt(s, "invalid i64 literal %q", s.atom)
}

func parseFloat(s *sexpr) (float64, error) {
	t := cleanNum(s.atom)
	switch t {
	case "inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	case "nan":
		return math.NaN(), nil
	case "-nan":
		return math.Copysign(math.NaN(), -1), nil
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, errAt(s, "invalid float literal %q", s.atom)
	}
	return v, nil
}
