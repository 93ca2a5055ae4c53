package wasm

import "fmt"

// SectionID identifies a section in the binary format.
type SectionID byte

// Section identifiers in binary order.
const (
	SectionCustom   SectionID = 0
	SectionType     SectionID = 1
	SectionImport   SectionID = 2
	SectionFunction SectionID = 3
	SectionTable    SectionID = 4
	SectionMemory   SectionID = 5
	SectionGlobal   SectionID = 6
	SectionExport   SectionID = 7
	SectionStart    SectionID = 8
	SectionElement  SectionID = 9
	SectionCode     SectionID = 10
	SectionData     SectionID = 11
)

// Module is a decoded (or programmatically built) WebAssembly module.
type Module struct {
	Types     []FuncType
	Imports   []Import
	Functions []uint32 // type indices of module-defined functions
	Tables    []TableType
	Memories  []MemoryType
	Globals   []Global
	Exports   []Export
	StartSet  bool
	Start     uint32
	Elements  []ElementSegment
	Data      []DataSegment
	Codes     []Code
	Customs   []CustomSection

	// Name is an optional identifier (from the "name" custom section or set
	// by the embedder) used in error messages.
	Name string
}

// NumImportedFuncs returns the count of imported functions.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternalFunc {
			n++
		}
	}
	return n
}

// NumImportedGlobals returns the count of imported globals.
func (m *Module) NumImportedGlobals() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternalGlobal {
			n++
		}
	}
	return n
}

// NumImportedTables returns the count of imported tables.
func (m *Module) NumImportedTables() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternalTable {
			n++
		}
	}
	return n
}

// NumImportedMemories returns the count of imported memories.
func (m *Module) NumImportedMemories() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternalMemory {
			n++
		}
	}
	return n
}

// FuncTypeAt resolves the signature of function index idx across the
// imported+defined function index space.
func (m *Module) FuncTypeAt(idx uint32) (FuncType, error) {
	i := int(idx)
	ni := m.NumImportedFuncs()
	if i < ni {
		n := 0
		for _, imp := range m.Imports {
			if imp.Kind != ExternalFunc {
				continue
			}
			if n == i {
				if int(imp.Func) >= len(m.Types) {
					return FuncType{}, fmt.Errorf("wasm: import %q.%q: type index %d out of range", imp.Module, imp.Name, imp.Func)
				}
				return m.Types[imp.Func], nil
			}
			n++
		}
	}
	di := i - ni
	if di < 0 || di >= len(m.Functions) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", idx)
	}
	ti := m.Functions[di]
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: function %d: type index %d out of range", idx, ti)
	}
	return m.Types[ti], nil
}

// ExportedFunc returns the function index exported under name.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExternalFunc && e.Name == name {
			return e.Index, true
		}
	}
	return 0, false
}

// ImportedGlobalTypes returns the types of imported globals in index order,
// used to type-check constant expressions that reference them.
func (m *Module) ImportedGlobalTypes() []GlobalType {
	var out []GlobalType
	for _, imp := range m.Imports {
		if imp.Kind == ExternalGlobal {
			out = append(out, imp.Global)
		}
	}
	return out
}

// GlobalTypeAt resolves the type of global index idx across the
// imported+defined global index space.
func (m *Module) GlobalTypeAt(idx uint32) (GlobalType, bool) {
	imported := m.ImportedGlobalTypes()
	i := int(idx)
	if i < len(imported) {
		return imported[i], true
	}
	i -= len(imported)
	if i < len(m.Globals) {
		return m.Globals[i].Type, true
	}
	return GlobalType{}, false
}
