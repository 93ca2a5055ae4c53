package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/wasm"
)

// ModuleCode is the compiled, executable form of a validated module: every
// function body lowered to the interpreter's pre-decoded instruction format.
// The compiled code is immutable after Precompile and safe to share between
// any number of stores and instances concurrently — this is what the
// module-compilation cache hands out so N instances of the same module
// compile once and share one copy of compiled-code bytes, mirroring the
// paper's shared-runtime-code memory accounting. Its two other shared
// artifacts are write-once: the baseline memory image (the memory-side twin
// of the code artifact, captured from the first instance and shared by
// reference with every later one) and the tier-1 code (lowered at tier-up).
// Each is published at most once and never shrinks or disappears while
// anyone holds the ModuleCode, so readers load them without locking.
type ModuleCode struct {
	m         *wasm.Module
	codes     []compiledCode // one per module-defined function, with its hotness
	codeBytes int64
	// nImported counts the module's function imports.
	nImported int

	baseMu   sync.Mutex // serializes capture and attach; readers load baseline without it
	baseline atomic.Pointer[BaselineImage]
	// imageIsMemory: instantiation writes the module's own memory from
	// constants only (no start function, no imported memory, no data offset
	// read from an imported global), so once the baseline image exists a fresh
	// instance's memory is the image and InstantiateCompiled aliases it
	// instead of allocating and replaying data segments.
	imageIsMemory bool

	// funcNames is the name section's function names, decoded on the first
	// trap label (funcLabel) and shared by every instance.
	namesOnce sync.Once
	funcNames map[uint32]string

	// Tier-1 state. The published artifact is an atomic pointer so the
	// single-threaded stores sharing this ModuleCode pick it up without
	// locking on the invoke path; lowering itself is singleflighted under
	// tierMu. Hotness counters are per module-defined function and are
	// only touched by top-level invokes running at tier 0.
	policy   atomic.Int32 // the TierPolicy's Mode; TierModeOff until SetTierPolicy
	tier1    atomic.Pointer[Tier1Code]
	tierMu   sync.Mutex
	onTierUp TierUpListener // guarded by tierMu
}

// TierUpListener observes a module's tier-up: TierUp runs once, outside the
// tier mutex, when the tier-1 artifact is published, with the lowering wall
// time.
type TierUpListener interface {
	TierUp(tc *Tier1Code, lowered time.Duration)
}

// hotCount tracks one function's top-level invoke count and the instructions
// those invokes executed (including callees), the two signals the tier-up
// policy thresholds.
type hotCount struct {
	invokes atomic.Uint64
	instrs  atomic.Uint64
}

// TierMode selects how the second execution tier is engaged.
type TierMode int32

const (
	// TierModeOff never lowers to tier 1.
	TierModeOff TierMode = iota
	// TierModeHotness lowers the module once any function's hotness
	// counters cross the policy thresholds.
	TierModeHotness
	// TierModeEager expects the embedder to call EnsureTier1 up front
	// (at compile/instantiate time); the counters are never consulted.
	TierModeEager
)

// TierPolicy configures tier-up.
type TierPolicy struct {
	Mode TierMode
}

// The hotness thresholds: a function tiers up its module once it has served
// tierUpInvokes top-level invokes, or once those invokes have executed
// tierUpInstrs instructions in total, whichever comes first.
const (
	tierUpInvokes = 8
	tierUpInstrs  = 1 << 18
)

// DefaultTierPolicy is the hotness policy engines use unless overridden.
func DefaultTierPolicy() TierPolicy {
	return TierPolicy{Mode: TierModeHotness}
}

// Precompile lowers every function body of a validated module. The module
// must already have passed wasm.Validate; Precompile does not re-check.
// What the module keeps is its ModuleCode, one compiledCode per function in
// one block, and each body's fused instructions (and br_table jump tables)
// at their exact size; the lowering scratch is sized once, for the longest
// body, and reused from body to body.
func Precompile(m *wasm.Module) (*ModuleCode, error) {
	nImported := 0
	for _, imp := range m.Imports {
		if imp.Kind == wasm.ExternalFunc {
			nImported++
		}
	}
	mc := &ModuleCode{
		m:             m,
		codes:         make([]compiledCode, len(m.Functions)),
		nImported:     nImported,
		imageIsMemory: !m.StartSet && len(m.Memories) > 0,
	}
	for _, seg := range m.Data {
		if seg.Offset.Op == wasm.ConstGlobalGet {
			mc.imageIsMemory = false
		}
	}
	c := compiler{m: m}
	c.reserveFor(m)
	for i, ti := range m.Functions {
		cc := &mc.codes[i]
		if err := c.compileBody(m.Types[ti], &m.Codes[i], cc); err != nil {
			return nil, fmt.Errorf("exec: compiling function %d: %w", nImported+i, err)
		}
		mc.codeBytes += cc.sizeBytes()
	}
	return mc, nil
}

// funcName returns function idx's name-section entry, if any. Safe for
// concurrent use: the section is decoded once per ModuleCode.
func (mc *ModuleCode) funcName(idx uint32) (string, bool) {
	mc.namesOnce.Do(func() { mc.funcNames = wasm.DecodeNameSection(mc.m).FuncNames })
	name, ok := mc.funcNames[idx]
	return name, ok
}

// Module returns the decoded module this code was compiled from.
func (mc *ModuleCode) Module() *wasm.Module { return mc.m }

// CodeBytes is the accounted size of the compiled artifact: what one copy of
// the lowered instruction streams and branch tables costs in memory. The
// cache's LRU bound and the engines' shared-code accounting both use it.
func (mc *ModuleCode) CodeBytes() int64 { return mc.codeBytes }

// EnsureBaseline gives mem, a freshly instantiated memory, the module's
// shared baseline image. The first call donates mem's post-instantiation
// buffer as the image; later calls attach the same image by reference (a
// no-op for a memory InstantiateCompiled already aliased to it), so N
// instances of one digest share one copy and are individually charged only
// their dirty pages. Returns the shared image, or nil when mem is nil or its
// contents differ from the image (the memory is then left untouched and
// keeps its own private baseline semantics).
func (mc *ModuleCode) EnsureBaseline(mem *Memory) *BaselineImage {
	if mem == nil {
		return nil
	}
	mc.baseMu.Lock()
	defer mc.baseMu.Unlock()
	img := mc.baseline.Load()
	if img == nil {
		img = mem.CaptureBaseline()
		mc.baseline.Store(img)
		return img
	}
	if !mem.AttachBaseline(img) {
		return nil
	}
	return img
}

// freshImage returns the published baseline image if a fresh instance's
// memory is exactly that image, else nil.
func (mc *ModuleCode) freshImage() *BaselineImage {
	if !mc.imageIsMemory {
		return nil
	}
	img := mc.baseline.Load()
	if img == nil || img.Pages() != mc.m.Memories[0].Limits.Min {
		return nil // not published yet, or captured from a memory that had grown
	}
	return img
}

// BaselineBytes is the accounted size of the shared baseline image, 0 until
// a first instance has been captured. Like CodeBytes it is charged once per
// node regardless of instance count.
func (mc *ModuleCode) BaselineBytes() int64 {
	if img := mc.baseline.Load(); img != nil {
		return img.Bytes()
	}
	return 0
}

// SetTierPolicy installs the tier-up policy consulted by top-level invokes.
func (mc *ModuleCode) SetTierPolicy(p TierPolicy) { mc.policy.Store(int32(p.Mode)) }

// noteInvoke records one top-level tier-0 invoke of function i that executed
// instrs instructions (callees included), and reports whether the hotness
// policy says the module should tier up now.
func (mc *ModuleCode) noteInvoke(i int32, instrs uint64) bool {
	if TierMode(mc.policy.Load()) != TierModeHotness {
		return false
	}
	h := &mc.codes[i].hot
	inv := h.invokes.Add(1)
	tot := h.instrs.Add(instrs)
	return inv >= tierUpInvokes || tot >= tierUpInstrs
}

// EnsureTier1 publishes the tier-1 artifact for this module, lowering it on
// first call (singleflight: concurrent callers block on one lowering and all
// observe the same artifact). Reports whether this call performed the
// lowering.
func (mc *ModuleCode) EnsureTier1() (*Tier1Code, bool) {
	if tc := mc.tier1.Load(); tc != nil {
		return tc, false
	}
	mc.tierMu.Lock()
	if tc := mc.tier1.Load(); tc != nil {
		mc.tierMu.Unlock()
		return tc, false
	}
	start := time.Now()
	tc := lowerTier1(mc)
	mc.tier1.Store(tc)
	cb := mc.onTierUp
	mc.tierMu.Unlock()
	if cb != nil {
		cb.TierUp(tc, time.Since(start))
	}
	return tc, true
}

// Tier1Bytes is the accounted size of the published tier-1 artifact (0 when
// not lowered). Like CodeBytes it is charged once per node.
func (mc *ModuleCode) Tier1Bytes() int64 {
	if tc := mc.tier1.Load(); tc != nil {
		return tc.bytes
	}
	return 0
}

// SetTierUpListener registers l to observe the tier-up; it replaces any
// earlier listener, and nil unregisters.
func (mc *ModuleCode) SetTierUpListener(l TierUpListener) {
	mc.tierMu.Lock()
	defer mc.tierMu.Unlock()
	mc.onTierUp = l
}
