package exec

import (
	"errors"
	"fmt"
	"math"

	"wasmcontainers/internal/wasm"
)

// Config bounds execution inside a Store.
type Config struct {
	// MaxCallDepth limits wasm call nesting; 0 means the default (2048).
	MaxCallDepth int
	// MemoryLimitPages caps every linear memory; 0 means the 4 GiB spec max.
	MemoryLimitPages uint32
	// Fuel, when positive, bounds the total number of instructions the store
	// may execute before trapping with TrapOutOfFuel.
	Fuel uint64
}

// DefaultMaxCallDepth is used when Config.MaxCallDepth is zero.
const DefaultMaxCallDepth = 2048

// Store owns all runtime state: instances, host modules, and execution
// accounting. A Store is not safe for concurrent use.
//
// A store is allocated together with room for its first instance and that
// instance's memory (ownInst, ownMem), so an embedder that creates one store
// per instance — engine.Instantiate, a one-shot WASI run — pays one
// allocation for all three, or none when the store lives in a record of its
// own (Init). Later instances in the same store are allocated on their own.
type Store struct {
	cfg Config
	// The registries are made by the first named registration (NewHostModule,
	// or an instantiation under a non-empty name); lookups read nil maps.
	modules     map[string]*Instance
	hostModules map[string]*HostModule
	// instrCount counts executed instructions across all instances, used by
	// the engine profiles to derive deterministic timing.
	instrCount uint64
	fuelLeft   uint64
	fueled     bool
	depth      int
	// frameFree is a LIFO freelist of frame buffers (locals + operand stack)
	// recycled across calls so the interpreter does not allocate per call.
	// It starts on frameOne, so putting back a first call's buffer does not
	// grow it.
	frameFree [][]Value
	frameOne  [1][]Value

	// Tier-1 execution state: one contiguous register window per call,
	// carved from t1stack. The stack is reallocated only while empty
	// (t1sp == 0), so live frames — which hold slices into it — are never
	// invalidated; a mid-stack shortfall records the wanted size in t1want
	// and falls back to tier 0 for that call.
	t1stack []Value
	t1sp    int
	t1want  int
	t1free  []*t1frame
	// lastInvokeTier records which tier served the most recent top-level
	// invoke (0 or 1), for engine-side per-tier telemetry.
	lastInvokeTier int

	// ownInst and ownMem are the first instance's storage; ownTaken is set
	// once an instantiation has claimed them (a failed one too: its instance
	// may be registered or referenced, so they are never handed out twice).
	ownInst  Instance
	ownMem   Memory
	ownTaken bool
}

// minFrameSlots sizes freshly allocated frame buffers so small functions
// recycle well without repeated growth.
const minFrameSlots = 64

// getFrame returns a frame buffer with len == need (or more for recycled
// buffers, which callers slice down). The contents are arbitrary; run zeroes
// the locals region explicitly.
func (s *Store) getFrame(need int) []Value {
	if n := len(s.frameFree); n > 0 {
		buf := s.frameFree[n-1]
		s.frameFree = s.frameFree[:n-1]
		if cap(buf) >= need {
			return buf[:need]
		}
	}
	if need < minFrameSlots {
		need = minFrameSlots
	}
	return make([]Value, need)
}

// putFrame returns a buffer to the freelist for reuse by the next call.
func (s *Store) putFrame(buf []Value) {
	s.frameFree = append(s.frameFree, buf)
}

// spendFuel deducts one basic block's instruction count from the fuel tank,
// clamping to zero and reporting false when the block overdraws it.
func (s *Store) spendFuel(delta uint64) bool {
	if delta > s.fuelLeft {
		s.fuelLeft = 0
		return false
	}
	s.fuelLeft -= delta
	return true
}

// NewStore creates an empty store with the given configuration.
func NewStore(cfg Config) *Store {
	s := new(Store)
	s.Init(cfg)
	return s
}

// Init makes s an empty store with the given configuration, in place: the
// form of NewStore for an embedder that keeps its store inside a record of
// its own (engine.Instance), so the two share one allocation. A store holds
// pointers into itself, so it must not be copied once initialised.
func (s *Store) Init(cfg Config) {
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = DefaultMaxCallDepth
	}
	*s = Store{cfg: cfg}
	s.frameFree = s.frameOne[:0]
	if cfg.Fuel > 0 {
		s.fueled = true
		s.fuelLeft = cfg.Fuel
	}
}

// InstructionCount returns the number of wasm instructions executed so far.
func (s *Store) InstructionCount() uint64 { return s.instrCount }

// LastInvokeTier reports which execution tier (0 or 1) served the most
// recent top-level invoke on this store.
func (s *Store) LastInvokeTier() int { return s.lastInvokeTier }

// AddFuel adds fuel to a fueled store.
func (s *Store) AddFuel(n uint64) {
	if s.fueled {
		s.fuelLeft += n
	}
}

// FuelLeft reports the remaining fuel (meaningful only for fueled stores).
func (s *Store) FuelLeft() uint64 { return s.fuelLeft }

// HostFunc is a function implemented by the embedder.
type HostFunc struct {
	Type wasm.FuncType
	// Fn receives the caller's context and raw argument values and returns
	// raw results matching Type.Results. Returning a *Trap or *ExitError
	// propagates it unchanged; other errors are wrapped as TrapHostError.
	Fn func(ctx *HostContext, args []Value) ([]Value, error)
}

// HostContext carries the calling instance's state into a host function.
type HostContext struct {
	Store    *Store
	Instance *Instance
	// Memory is the calling instance's memory (nil if it has none).
	Memory *Memory
}

// HostModule is a named collection of host-provided externs.
type HostModule struct {
	Name string
	// The maps are created by the first Add*; lookups read nil maps.
	funcs   map[string]*HostFunc
	globals map[string]*GlobalVar
	mems    map[string]*Memory
	tables  map[string]*Table
	// lookup resolves function names AddFunc did not register.
	lookup func(name string) *HostFunc
}

// NewHostModule creates an empty host module registered under name.
func (s *Store) NewHostModule(name string) *HostModule {
	hm := &HostModule{Name: name}
	if s.hostModules == nil {
		s.hostModules = make(map[string]*HostModule)
	}
	s.hostModules[name] = hm
	return hm
}

// AddFunc registers a host function under the given export name.
func (hm *HostModule) AddFunc(name string, f HostFunc) *HostModule {
	if hm.funcs == nil {
		hm.funcs = make(map[string]*HostFunc)
	}
	fn := f
	hm.funcs[name] = &fn
	return hm
}

// SetFuncLookup makes lookup the resolver for function imports AddFunc has
// not registered: it is asked once per such import of an instantiating
// module and returns nil for a name it does not provide. A host surface
// with many functions thereby builds only the ones a guest links.
func (hm *HostModule) SetFuncLookup(lookup func(name string) *HostFunc) *HostModule {
	hm.lookup = lookup
	return hm
}

// AddGlobal registers a host global.
func (hm *HostModule) AddGlobal(name string, g *GlobalVar) *HostModule {
	if hm.globals == nil {
		hm.globals = make(map[string]*GlobalVar)
	}
	hm.globals[name] = g
	return hm
}

// AddMemory registers a host memory.
func (hm *HostModule) AddMemory(name string, m *Memory) *HostModule {
	if hm.mems == nil {
		hm.mems = make(map[string]*Memory)
	}
	hm.mems[name] = m
	return hm
}

// function is the unified runtime representation of wasm and host functions.
// An instance holds its whole function index space by value in one block;
// an imported wasm function is a copy of its defining instance's entry, so
// it runs in that instance exactly as the original does.
type function struct {
	typ       wasm.FuncType
	inst      *Instance // owning instance; nil for host functions
	host      *HostFunc
	code      *compiledCode
	numParams int
	numLocals int // locals beyond parameters
	idx       uint32
	// mc/mcIdx tie a module-defined function back to its shared ModuleCode
	// so call sites can pick up the tier-1 body published there. Both stay
	// zero/nil for host functions; imported wasm functions copy the entry
	// of their defining instance and so carry its ModuleCode.
	mc    *ModuleCode
	mcIdx int32
}

// Instance is an instantiated module.
type Instance struct {
	Module  *wasm.Module
	Name    string
	store   *Store
	code    *ModuleCode
	funcs   []function // the function index space: imports, then definitions
	mem     *Memory
	table   *Table
	globals []*GlobalVar
	depth   int
}

// funcLabel names a function for trap stacks: the name-section entry if
// present, else "func[N]".
func (inst *Instance) funcLabel(idx uint32) string {
	if name, ok := inst.code.funcName(idx); ok {
		return "$" + name
	}
	return fmt.Sprintf("func[%d]", idx)
}

// Memory returns the instance's linear memory, or nil.
func (inst *Instance) Memory() *Memory { return inst.mem }

// Store returns the owning store.
func (inst *Instance) Store() *Store { return inst.store }

// Code returns the shared ModuleCode this instance executes from — the
// handle for tier policy and tier-up control.
func (inst *Instance) Code() *ModuleCode { return inst.code }

// errors for linking.
var (
	ErrUnknownImport    = errors.New("exec: unknown import")
	ErrIncompatibleLink = errors.New("exec: incompatible import type")
)

// Instantiate validates nothing (the module must already be validated),
// resolves imports against the store's host modules and named instances,
// allocates memories/tables/globals, applies element and data segments, runs
// the start function, and registers the instance under name (if non-empty).
// It compiles every body from scratch; callers that instantiate the same
// module repeatedly should Precompile once and use InstantiateCompiled.
func (s *Store) Instantiate(m *wasm.Module, name string) (*Instance, error) {
	mc, err := Precompile(m)
	if err != nil {
		return nil, err
	}
	return s.InstantiateCompiled(mc, name)
}

// InstantiateCompiled instantiates from a precompiled (and possibly shared)
// ModuleCode: per-instance state is allocated fresh, but the compiled bodies
// are referenced, not copied, so N instances share one artifact. The first
// instance of a store lives in the store's own allocation, with its memory,
// and the function index space takes one more.
func (s *Store) InstantiateCompiled(mc *ModuleCode, name string) (*Instance, error) {
	m := mc.m
	inst, ownMem := s.claimOwn()
	*inst = Instance{
		Module: m, Name: name, store: s, code: mc,
		funcs: make([]function, 0, mc.nImported+len(m.Functions)),
	}

	// Resolve imports in declaration order.
	for _, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternalFunc:
			f, err := s.resolveFunc(imp)
			if err != nil {
				return nil, err
			}
			inst.funcs = append(inst.funcs, f)
		case wasm.ExternalMemory:
			mem, err := s.resolveMemory(imp)
			if err != nil {
				return nil, err
			}
			inst.mem = mem
		case wasm.ExternalTable:
			tbl, err := s.resolveTable(imp)
			if err != nil {
				return nil, err
			}
			inst.table = tbl
		case wasm.ExternalGlobal:
			g, err := s.resolveGlobal(imp)
			if err != nil {
				return nil, err
			}
			inst.globals = append(inst.globals, g)
		}
	}

	// Module-defined functions: reference the shared compiled bodies.
	nImported := len(inst.funcs)
	for i, ti := range m.Functions {
		ft := m.Types[ti]
		inst.funcs = append(inst.funcs, function{
			typ:       ft,
			inst:      inst,
			code:      &mc.codes[i],
			numParams: len(ft.Params),
			numLocals: len(m.Codes[i].Locals),
			idx:       uint32(nImported + i),
			mc:        mc,
			mcIdx:     int32(i),
		})
	}

	// Memories, tables, globals.
	// With a published baseline image that is exactly a fresh memory, the
	// instance aliases it: nothing to allocate, zero or replay.
	img := mc.freshImage()
	for _, mt := range m.Memories {
		mem := ownMem
		if mem == nil {
			mem = new(Memory)
		}
		if img != nil {
			mem.initAliased(mt, s.cfg.MemoryLimitPages, img)
		} else {
			mem.init(mt, s.cfg.MemoryLimitPages)
		}
		inst.mem, ownMem = mem, nil
	}
	for _, tt := range m.Tables {
		inst.table = NewTable(tt)
	}
	for _, g := range m.Globals {
		val, err := inst.evalConst(g.Init)
		if err != nil {
			return nil, err
		}
		inst.globals = append(inst.globals, &GlobalVar{Type: g.Type, Val: val})
	}

	// Element segments: bounds-check then write (spec: all-or-nothing per
	// module in the MVP; we check all segments before applying any).
	type elemPatch struct {
		off     uint32
		indices []uint32
	}
	var elemPatches []elemPatch
	for i, seg := range m.Elements {
		offVal, err := inst.evalConst(seg.Offset)
		if err != nil {
			return nil, err
		}
		off := AsU32(offVal)
		if inst.table == nil || uint64(off)+uint64(len(seg.Indices)) > uint64(inst.table.Len()) {
			return nil, fmt.Errorf("exec: element segment %d out of bounds", i)
		}
		elemPatches = append(elemPatches, elemPatch{off: off, indices: seg.Indices})
	}
	type dataPatch struct {
		off  uint32
		data []byte
	}
	var dataPatches []dataPatch
	segs := m.Data
	if img != nil {
		segs = nil // the image already holds every segment
	}
	for i, seg := range segs {
		offVal, err := inst.evalConst(seg.Offset)
		if err != nil {
			return nil, err
		}
		off := AsU32(offVal)
		if inst.mem == nil || uint64(off)+uint64(len(seg.Data)) > uint64(inst.mem.Size()) {
			return nil, fmt.Errorf("exec: data segment %d out of bounds", i)
		}
		dataPatches = append(dataPatches, dataPatch{off: off, data: seg.Data})
	}
	for _, p := range elemPatches {
		for j, fi := range p.indices {
			inst.table.elems[p.off+uint32(j)] = &inst.funcs[fi]
		}
	}
	for _, p := range dataPatches {
		inst.mem.Write(p.off, p.data)
	}

	if name != "" {
		if s.modules == nil {
			s.modules = make(map[string]*Instance)
		}
		s.modules[name] = inst
	}

	// Start function runs after initialization.
	if m.StartSet {
		if _, err := inst.invoke(&inst.funcs[m.Start], nil); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// claimOwn hands out the store's inline instance and memory to its first
// instantiation, and nil storage (the caller allocates) to every later one.
func (s *Store) claimOwn() (*Instance, *Memory) {
	if s.ownTaken {
		return new(Instance), nil
	}
	s.ownTaken = true
	return &s.ownInst, &s.ownMem
}

func (s *Store) resolveFunc(imp wasm.Import) (function, error) {
	if hm, ok := s.hostModules[imp.Module]; ok {
		hf := hm.funcs[imp.Name]
		if hf == nil && hm.lookup != nil {
			hf = hm.lookup(imp.Name)
		}
		if hf == nil {
			return function{}, fmt.Errorf("%w: %s.%s", ErrUnknownImport, imp.Module, imp.Name)
		}
		return function{typ: hf.Type, host: hf, numParams: len(hf.Type.Params)}, nil
	}
	if other, ok := s.modules[imp.Module]; ok {
		for _, e := range other.Module.Exports {
			if e.Kind == wasm.ExternalFunc && e.Name == imp.Name {
				return other.funcs[e.Index], nil
			}
		}
	}
	return function{}, fmt.Errorf("%w: %s.%s", ErrUnknownImport, imp.Module, imp.Name)
}

func (s *Store) resolveMemory(imp wasm.Import) (*Memory, error) {
	if hm, ok := s.hostModules[imp.Module]; ok {
		if mem, ok := hm.mems[imp.Name]; ok {
			if mem.Pages() < imp.Memory.Limits.Min {
				return nil, fmt.Errorf("%w: memory %s.%s too small", ErrIncompatibleLink, imp.Module, imp.Name)
			}
			return mem, nil
		}
	}
	if other, ok := s.modules[imp.Module]; ok {
		for _, e := range other.Module.Exports {
			if e.Kind == wasm.ExternalMemory && e.Name == imp.Name && other.mem != nil {
				return other.mem, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: memory %s.%s", ErrUnknownImport, imp.Module, imp.Name)
}

func (s *Store) resolveTable(imp wasm.Import) (*Table, error) {
	if hm, ok := s.hostModules[imp.Module]; ok {
		if tbl, ok := hm.tables[imp.Name]; ok {
			return tbl, nil
		}
	}
	if other, ok := s.modules[imp.Module]; ok {
		for _, e := range other.Module.Exports {
			if e.Kind == wasm.ExternalTable && e.Name == imp.Name && other.table != nil {
				return other.table, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: table %s.%s", ErrUnknownImport, imp.Module, imp.Name)
}

func (s *Store) resolveGlobal(imp wasm.Import) (*GlobalVar, error) {
	if hm, ok := s.hostModules[imp.Module]; ok {
		if g, ok := hm.globals[imp.Name]; ok {
			if g.Type.ValType != imp.Global.ValType {
				return nil, fmt.Errorf("%w: global %s.%s", ErrIncompatibleLink, imp.Module, imp.Name)
			}
			return g, nil
		}
	}
	if other, ok := s.modules[imp.Module]; ok {
		for _, e := range other.Module.Exports {
			if e.Kind == wasm.ExternalGlobal && e.Name == imp.Name {
				return other.globals[e.Index], nil
			}
		}
	}
	return nil, fmt.Errorf("%w: global %s.%s", ErrUnknownImport, imp.Module, imp.Name)
}

// evalConst evaluates a constant initializer in this instance.
func (inst *Instance) evalConst(ce wasm.ConstExpr) (Value, error) {
	switch ce.Op {
	case wasm.ConstI32, wasm.ConstF32:
		return ce.Value & math.MaxUint32, nil
	case wasm.ConstI64, wasm.ConstF64:
		return ce.Value, nil
	case wasm.ConstGlobalGet:
		gi := int(ce.Value)
		if gi >= len(inst.globals) {
			return 0, fmt.Errorf("exec: constant expression references unknown global %d", gi)
		}
		return inst.globals[gi].Get(), nil
	}
	return 0, errors.New("exec: bad constant expression")
}

// Call invokes the exported function name with raw argument values.
func (inst *Instance) Call(name string, args ...Value) ([]Value, error) {
	idx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("exec: no exported function %q", name)
	}
	f := &inst.funcs[idx]
	if len(args) != len(f.typ.Params) {
		return nil, fmt.Errorf("exec: %q expects %d arguments, got %d", name, len(f.typ.Params), len(args))
	}
	for i, t := range f.typ.Params {
		if is32(t) && args[i] > math.MaxUint32 {
			// Canonicalise a copy: the caller's slice stays as passed.
			args = append([]Value(nil), args...)
			canon32(args, f.typ.Params)
			break
		}
	}
	return inst.invoke(f, args)
}

func is32(t wasm.ValueType) bool { return t == wasm.ValueTypeI32 || t == wasm.ValueTypeF32 }

// canon32 masks the i32 and f32 values among vs, typed by ts, to their low
// 32 bits. A Value from outside the guest (a call argument, a host result)
// may carry bits above them; inside, every i32 is zero-extended, which is
// what a bare if, br_if or select and a returned local rely on.
func canon32(vs []Value, ts []wasm.ValueType) {
	for i, t := range ts {
		if i < len(vs) && is32(t) {
			vs[i] &= math.MaxUint32
		}
	}
}

// FuncType returns the signature of the exported function name.
func (inst *Instance) FuncType(name string) (wasm.FuncType, bool) {
	idx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		return wasm.FuncType{}, false
	}
	return inst.funcs[idx].typ, true
}

// GlobalByName returns the exported global, or nil.
func (inst *Instance) GlobalByName(name string) *GlobalVar {
	for _, e := range inst.Module.Exports {
		if e.Kind == wasm.ExternalGlobal && e.Name == name {
			return inst.globals[e.Index]
		}
	}
	return nil
}
