package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wat"
	"wasmcontainers/internal/workloads"
)

// tierPair runs the same module in two independent stores — one at tier 0,
// one forced to tier 1 — and asserts after every call that results, traps,
// instruction counts, fuel, and memory state are bit-identical. This is the
// enforcement mechanism for the tiering contract: tier 1 is an observable
// no-op apart from wall time.
type tierPair struct {
	t      *testing.T
	s0, s1 *Store
	i0, i1 *Instance
}

func newTierPair(t *testing.T, m *wasm.Module, cfg Config, setup func(s *Store)) *tierPair {
	t.Helper()
	mk := func() (*Store, *Instance) {
		s := NewStore(cfg)
		if setup != nil {
			setup(s)
		}
		inst, err := s.Instantiate(m, "mod")
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		return s, inst
	}
	s0, i0 := mk()
	s1, i1 := mk()
	tc, did := i1.Code().EnsureTier1()
	if !did || tc == nil {
		t.Fatalf("EnsureTier1 did not lower")
	}
	if tc.Lowered() != len(tc.funcs) {
		t.Fatalf("lowered %d of %d functions", tc.Lowered(), len(tc.funcs))
	}
	if tc.Bytes() <= 0 {
		t.Fatalf("tier-1 artifact bytes = %d, want > 0", tc.Bytes())
	}
	return &tierPair{t: t, s0: s0, s1: s1, i0: i0, i1: i1}
}

// tierCallDeadline bounds one call on both tiers. Pairs at Config{} run
// unfueled, so a tier that breaks a loop's exit would otherwise spin until
// the test binary's timeout; the slowest pair call takes milliseconds.
const tierCallDeadline = 10 * time.Second

// call invokes the export on both tiers and cross-checks every observable.
// A watchdog fails the run if the calls have not returned after
// tierCallDeadline: the stuck call is the test goroutine itself, so the
// watchdog panics, naming the call and the tier that did not return.
func (p *tierPair) call(name string, args ...Value) ([]Value, error) {
	p.t.Helper()
	var tier atomic.Int32 // the tier whose call is running
	watchdog := time.AfterFunc(tierCallDeadline, func() {
		panic(fmt.Sprintf("%s: %s%v: tier %d did not return within %v", p.t.Name(), name, args, tier.Load(), tierCallDeadline))
	})
	r0, e0 := p.i0.Call(name, args...)
	tier.Store(1)
	r1, e1 := p.i1.Call(name, args...)
	watchdog.Stop()
	if (e0 == nil) != (e1 == nil) {
		p.t.Fatalf("%s%v: tier0 err=%v, tier1 err=%v", name, args, e0, e1)
	}
	if e0 != nil && e0.Error() != e1.Error() {
		p.t.Fatalf("%s%v: trap mismatch\n tier0: %v\n tier1: %v", name, args, e0, e1)
	}
	if len(r0) != len(r1) {
		p.t.Fatalf("%s%v: result arity %d vs %d", name, args, len(r0), len(r1))
	}
	for i := range r0 {
		if r0[i] != r1[i] {
			p.t.Fatalf("%s%v: result[%d] = %#x (tier0) vs %#x (tier1)", name, args, i, r0[i], r1[i])
		}
	}
	if tier := p.s1.LastInvokeTier(); tier != 1 {
		p.t.Fatalf("%s%v: tier-1 store served at tier %d", name, args, tier)
	}
	if c0, c1 := p.s0.InstructionCount(), p.s1.InstructionCount(); c0 != c1 {
		p.t.Fatalf("%s%v: instruction count %d (tier0) vs %d (tier1)", name, args, c0, c1)
	}
	if f0, f1 := p.s0.FuelLeft(), p.s1.FuelLeft(); f0 != f1 {
		p.t.Fatalf("%s%v: fuel left %d (tier0) vs %d (tier1)", name, args, f0, f1)
	}
	p.checkMemory()
	return r0, e0
}

func (p *tierPair) checkMemory() {
	p.t.Helper()
	m0, m1 := p.i0.Memory(), p.i1.Memory()
	if (m0 == nil) != (m1 == nil) {
		p.t.Fatalf("memory presence mismatch")
	}
	if m0 == nil {
		return
	}
	if !bytes.Equal(m0.Bytes(), m1.Bytes()) {
		p.t.Fatalf("final memory contents differ between tiers")
	}
	if d0, d1 := m0.DirtyPages(), m1.DirtyPages(); d0 != d1 {
		p.t.Fatalf("dirty pages %d (tier0) vs %d (tier1)", d0, d1)
	}
}

// --- corpus builders -------------------------------------------------------

func factorialModule(t *testing.T) *wasm.Module {
	b := new(wasm.BodyBuilder)
	b.I32Const(1).OpU32(wasm.OpLocalSet, 1)
	b.Block(wasm.OpBlock, wasm.BlockTypeEmpty)
	b.Block(wasm.OpLoop, wasm.BlockTypeEmpty)
	b.OpU32(wasm.OpLocalGet, 0).I32Const(1).Op(wasm.OpI32LeS).OpU32(wasm.OpBrIf, 1)
	b.OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI32Mul).OpU32(wasm.OpLocalSet, 1)
	b.OpU32(wasm.OpLocalGet, 0).I32Const(1).Op(wasm.OpI32Sub).OpU32(wasm.OpLocalSet, 0)
	b.OpU32(wasm.OpBr, 0)
	b.End().End()
	b.OpU32(wasm.OpLocalGet, 1)
	b.End()
	return buildModule(t, singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, []wasm.ValueType{i32}, b))
}

func fibModule(t *testing.T) *wasm.Module {
	b := new(wasm.BodyBuilder)
	b.OpU32(wasm.OpLocalGet, 0).I32Const(2).Op(wasm.OpI32LtS)
	b.Block(wasm.OpIf, wasm.BlockTypeEmpty)
	b.OpU32(wasm.OpLocalGet, 0).Op(wasm.OpReturn)
	b.End()
	b.OpU32(wasm.OpLocalGet, 0).I32Const(1).Op(wasm.OpI32Sub).OpU32(wasm.OpCall, 0)
	b.OpU32(wasm.OpLocalGet, 0).I32Const(2).Op(wasm.OpI32Sub).OpU32(wasm.OpCall, 0)
	b.Op(wasm.OpI32Add)
	b.End()
	return buildModule(t, singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, nil, b))
}

// churnModule writes n u64 slots then sums them back: store/load, i64 math,
// loop branches, dirty-page marking.
func churnModule(t *testing.T) *wasm.Module {
	b := new(wasm.BodyBuilder)
	// local0 = n (param), local1 = i, local2 = sum (i64)
	b.Block(wasm.OpBlock, wasm.BlockTypeEmpty)
	b.Block(wasm.OpLoop, wasm.BlockTypeEmpty)
	b.OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI32GeU).OpU32(wasm.OpBrIf, 1)
	b.OpU32(wasm.OpLocalGet, 1).I32Const(8).Op(wasm.OpI32Mul)
	b.OpU32(wasm.OpLocalGet, 1).Op(wasm.OpI64ExtendI32U).I64Const(0x9e3779b9).Op(wasm.OpI64Mul)
	b.MemArg(wasm.OpI64Store, 3, 0)
	b.OpU32(wasm.OpLocalGet, 2)
	b.OpU32(wasm.OpLocalGet, 1).I32Const(8).Op(wasm.OpI32Mul).MemArg(wasm.OpI64Load, 3, 0)
	b.Op(wasm.OpI64Add).OpU32(wasm.OpLocalSet, 2)
	b.OpU32(wasm.OpLocalGet, 1).I32Const(1).Op(wasm.OpI32Add).OpU32(wasm.OpLocalSet, 1)
	b.OpU32(wasm.OpBr, 0)
	b.End().End()
	b.OpU32(wasm.OpLocalGet, 2)
	b.End()
	m := singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i64t}, []wasm.ValueType{i32, i64t}, b)
	m.Memories = []wasm.MemoryType{{Limits: wasm.Limits{Min: 4}}}
	return buildModule(t, m)
}

func TestTierDiffFactorial(t *testing.T) {
	p := newTierPair(t, factorialModule(t), Config{}, nil)
	for _, n := range []int32{0, 1, 5, 10, 12} {
		p.call("f", I32(n))
	}
}

func TestTierDiffRecursiveFib(t *testing.T) {
	p := newTierPair(t, fibModule(t), Config{}, nil)
	for _, n := range []int32{0, 1, 7, 15} {
		p.call("f", I32(n))
	}
}

// sumToModule is f(n) = n == 0 ? 0 : n + f(n-1): one frame per unit of n, so
// the call depth is the argument.
func sumToModule(t *testing.T) *wasm.Module {
	b := new(wasm.BodyBuilder)
	b.OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI32Eqz)
	b.Block(wasm.OpIf, wasm.BlockTypeEmpty)
	b.I32Const(0).Op(wasm.OpReturn)
	b.End()
	b.OpU32(wasm.OpLocalGet, 0)
	b.OpU32(wasm.OpLocalGet, 0).I32Const(1).Op(wasm.OpI32Sub).OpU32(wasm.OpCall, 0)
	b.Op(wasm.OpI32Add)
	b.End()
	return buildModule(t, singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, nil, b))
}

// A store's first register stack is the module's summed frame windows — a
// handful of slots here — so recursion outgrows it at once. The call that
// does must still be bit-identical to tier 0 (the frames past the shortfall
// run there), and the stack must have converged by the third call: no
// shortfall recorded, every frame at tier 1.
func TestTierDiffDeepRecursionConverges(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		depth int32
	}{
		// Past the static bound, inside the cap: one regrow.
		{"depth1500", Config{Fuel: 1 << 40}, 1500},
		// Past the cap too: the second call falls back again and doubles.
		{"depth12000", Config{MaxCallDepth: 20000, Fuel: 1 << 40}, 12000},
		// The guest runs out of fuel below the shortfall.
		{"out-of-fuel", Config{Fuel: 5000}, 1500},
		// The guest exhausts the call depth below the shortfall.
		{"call-stack-exhausted", Config{}, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTierPair(t, sumToModule(t), tc.cfg, nil)
			bound := p.i1.Code().tier1.Load().stack
			if int(tc.depth) < 100*bound {
				t.Fatalf("depth %d is not well past the %d-slot static bound", tc.depth, bound)
			}
			for call := 1; call <= 3; call++ {
				p.s0.AddFuel(tc.cfg.Fuel - p.s0.FuelLeft())
				p.s1.AddFuel(tc.cfg.Fuel - p.s1.FuelLeft())
				res, err := p.call("f", I32(tc.depth))
				if err == nil && AsI32(res[0]) != tc.depth*(tc.depth+1)/2 {
					t.Fatalf("call %d: f(%d) = %d", call, tc.depth, AsI32(res[0]))
				}
				switch fellBack := p.s1.t1want != 0; {
				case call == 1 && !fellBack:
					t.Fatalf("first call fit a %d-slot stack: the test no longer reaches the fallback", len(p.s1.t1stack))
				case call == 3 && fellBack:
					t.Fatalf("third call still fell back to tier 0 (stack %d slots, want %d)", len(p.s1.t1stack), p.s1.t1want)
				}
			}
		})
	}
}

// The served-instance probe next to serve's idle one: a request-handler
// instance that served handle(64) at tier 1 and was reset keeps a register
// stack of a few dozen slots, not the 128 KiB every store used to start with.
func TestServedInstanceRegisterStackIsSmall(t *testing.T) {
	m, err := workloads.Module("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(Config{})
	inst, err := s.Instantiate(m, "handler")
	if err != nil {
		t.Fatal(err)
	}
	if tc, _ := inst.Code().EnsureTier1(); tc == nil || tc.Lowered() != len(tc.funcs) {
		t.Fatal("request-handler did not lower")
	}
	inst.Memory().AttachBaseline(inst.Memory().CaptureBaseline())
	if res := mustCall(t, inst, "handle", I32(64)); AsI32(res[0]) != 1 || s.LastInvokeTier() != 1 {
		t.Fatalf("handle(64) = %d at tier %d, want 1 at tier 1", AsI32(res[0]), s.LastInvokeTier())
	}
	inst.Memory().ResetToBaseline()
	if s.t1want != 0 {
		t.Fatalf("handle(64) fell back to tier 0 (wanted %d slots)", s.t1want)
	}
	if held := cap(s.t1stack) * 8; held == 0 || held >= 4<<10 {
		t.Fatalf("served instance holds a %d-byte register stack, want 1..4095", held)
	}
}

func TestTierDiffMemoryChurn(t *testing.T) {
	p := newTierPair(t, churnModule(t), Config{}, nil)
	for _, n := range []int32{0, 1, 17, 4000} {
		p.call("f", I32(n))
	}
}

func TestTierDiffMemoryTraps(t *testing.T) {
	b := new(wasm.BodyBuilder)
	b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).MemArg(wasm.OpI32Store, 2, 0)
	b.OpU32(wasm.OpLocalGet, 0).MemArg(wasm.OpI32Load, 2, 0)
	b.End()
	m := singleFunc([]wasm.ValueType{i32, i32}, []wasm.ValueType{i32}, nil, b)
	m.Memories = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}}
	p := newTierPair(t, buildModule(t, m), Config{}, nil)
	p.call("f", I32(128), I32(0x1234abcd))
	p.call("f", I32(65532), I32(7))      // last valid word
	p.call("f", I32(65533), I32(1))      // straddles the end: trap
	p.call("f", I32(-4), I32(9))         // huge unsigned address: trap
	p.call("f", I32(65536-4), I32(0x5a)) // boundary store
}

// TestTierDiffLoadPastImagePrefix runs every load at both tiers on fresh
// instances aliasing an image that stores only its first 1 008 bytes of two
// pages: a load inside them leaves the memory aliased, one across or past
// their end materialises it and reads zeroes, and one past the memory's size
// traps and leaves it aliased.
func TestTierDiffLoadPastImagePrefix(t *testing.T) {
	const prefix, size = 1008, 2 * wasm.PageSize
	loads := []struct {
		op, result string
		width      int
		signed     bool
	}{
		{"i32.load", "i32", 4, false}, {"i64.load", "i64", 8, false},
		{"f32.load", "f32", 4, false}, {"f64.load", "f64", 8, false},
		{"i32.load8_s", "i32", 1, true}, {"i32.load8_u", "i32", 1, false},
		{"i32.load16_s", "i32", 2, true}, {"i32.load16_u", "i32", 2, false},
		{"i64.load8_s", "i64", 1, true}, {"i64.load8_u", "i64", 1, false},
		{"i64.load16_s", "i64", 2, true}, {"i64.load16_u", "i64", 2, false},
		{"i64.load32_s", "i64", 4, true}, {"i64.load32_u", "i64", 4, false},
	}
	src := `(module (memory 2) (data (i32.const 1000) "\01\82\03\84\05\86\07\88")`
	for _, l := range loads {
		src += fmt.Sprintf(`(func (export %q) (param i32) (result %s) (%s (local.get 0)))`, l.op, l.result, l.op)
	}
	m, err := wat.Compile(src + ")")
	if err != nil {
		t.Fatal(err)
	}
	contents := make([]byte, size)
	copy(contents[1000:], "\x01\x82\x03\x84\x05\x86\x07\x88")
	var codes [2]*ModuleCode
	for tier := range codes {
		mc, err := Precompile(m)
		if err != nil {
			t.Fatal(err)
		}
		if tier == 1 {
			mc.SetTierPolicy(TierPolicy{Mode: TierModeEager})
			mc.EnsureTier1()
		}
		inst, err := NewStore(Config{}).InstantiateCompiled(mc, "")
		if err != nil {
			t.Fatal(err)
		}
		if img := mc.EnsureBaseline(inst.Memory()); img == nil || len(img.data) != prefix {
			t.Fatalf("tier %d: the image does not store exactly its %d-byte prefix", tier, prefix)
		}
		codes[tier] = mc
	}
	for _, l := range loads {
		w := uint32(l.width)
		for _, addr := range []uint32{1000, prefix - w, prefix - 1, prefix, 5000, wasm.PageSize - 1,
			size - w, size - w + 1, size, 0xffffffff} {
			trap := uint64(addr)+uint64(w) > size
			var want Value
			if !trap {
				var raw [8]byte
				copy(raw[:], contents[addr:addr+w])
				v := binary.LittleEndian.Uint64(raw[:])
				if l.signed {
					v = uint64(int64(v<<(64-8*w)) >> (64 - 8*w))
				}
				if l.result == "i32" {
					v = I32(int32(v))
				}
				want = v
			}
			for tier, mc := range codes {
				store := NewStore(Config{})
				inst, err := store.InstantiateCompiled(mc, "")
				if err != nil {
					t.Fatal(err)
				}
				if !inst.Memory().aliased() {
					t.Fatalf("tier %d: a fresh instance does not alias the image", tier)
				}
				res, err := inst.Call(l.op, I32(int32(addr)))
				if got := store.LastInvokeTier(); got != tier {
					t.Fatalf("%s ran at tier %d, want %d", l.op, got, tier)
				}
				switch {
				case trap && (err == nil || !strings.Contains(err.Error(), "out of bounds")):
					t.Fatalf("tier %d %s(%d): err %v, want an out-of-bounds trap", tier, l.op, addr, err)
				case !trap && (err != nil || res[0] != want):
					t.Fatalf("tier %d %s(%d) = %v, %v; want %#x", tier, l.op, addr, res, err, want)
				case inst.Memory().aliased() != (trap || addr+w <= prefix):
					t.Fatalf("tier %d %s(%d): aliased %v after the load", tier, l.op, addr, inst.Memory().aliased())
				}
			}
		}
	}
}

// The eight integer div/rem ops, local by local and local by constant, at
// the divisors that trap (zero, and -1 under the signed minimum for div_s)
// and around them: the trap text and the instruction count at the trap must
// match tier 0, and rem_s of the signed minimum by -1 is 0.
func TestTierDiffDivTraps(t *testing.T) {
	for _, tc := range []struct {
		vt  wasm.ValueType
		op  wasm.Opcode
		min Value
	}{
		{i32, wasm.OpI32DivS, I32(math.MinInt32)}, {i32, wasm.OpI32DivU, I32(math.MinInt32)},
		{i32, wasm.OpI32RemS, I32(math.MinInt32)}, {i32, wasm.OpI32RemU, I32(math.MinInt32)},
		{i64t, wasm.OpI64DivS, I64(math.MinInt64)}, {i64t, wasm.OpI64DivU, I64(math.MinInt64)},
		{i64t, wasm.OpI64RemS, I64(math.MinInt64)}, {i64t, wasm.OpI64RemU, I64(math.MinInt64)},
	} {
		divisors := []Value{0, I64(-1), 1, 2, I64(-7), tc.min}
		if tc.vt == i32 {
			divisors = []Value{0, I32(-1), 1, 2, I32(-7), tc.min}
		}
		dividends := []Value{tc.min, 0, 7, I64(-7), 1 << 31}
		// local / local, the result pushed.
		b := new(wasm.BodyBuilder).
			OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(tc.op).End()
		p := newTierPair(t, buildModule(t, singleFunc([]wasm.ValueType{tc.vt, tc.vt}, []wasm.ValueType{tc.vt}, nil, b)), Config{}, nil)
		for _, l := range dividends {
			for _, r := range divisors {
				p.call("f", l, r)
			}
		}
		// local / constant, pushed and set into a local.
		for _, r := range divisors {
			for _, set := range []bool{false, true} {
				b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0)
				if tc.vt == i32 {
					b.I32Const(AsI32(r))
				} else {
					b.I64Const(AsI64(r))
				}
				b.Op(tc.op)
				if set {
					b.OpU32(wasm.OpLocalSet, 1).OpU32(wasm.OpLocalGet, 1)
				}
				b.End()
				m := singleFunc([]wasm.ValueType{tc.vt}, []wasm.ValueType{tc.vt}, []wasm.ValueType{tc.vt}, b)
				p := newTierPair(t, buildModule(t, m), Config{}, nil)
				for _, l := range dividends {
					p.call("f", l)
				}
			}
		}
	}
}

func TestTierDiffBrTable(t *testing.T) {
	b := new(wasm.BodyBuilder)
	b.Block(wasm.OpBlock, wasm.BlockTypeEmpty)
	b.Block(wasm.OpBlock, wasm.BlockTypeEmpty)
	b.Block(wasm.OpBlock, wasm.BlockTypeEmpty)
	b.OpU32(wasm.OpLocalGet, 0)
	b.BrTable([]uint32{0, 1}, 2)
	b.End()
	b.I32Const(100).Op(wasm.OpReturn)
	b.End()
	b.I32Const(200).Op(wasm.OpReturn)
	b.End()
	b.I32Const(999)
	b.End()
	p := newTierPair(t, buildModule(t, singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, nil, b)), Config{}, nil)
	for _, n := range []int32{0, 1, 2, 50, -1} {
		p.call("f", I32(n))
	}
}

func TestTierDiffCallIndirect(t *testing.T) {
	add := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(wasm.OpI32Add).End()
	mul := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(wasm.OpI32Mul).End()
	entry := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpLocalGet, 2).
		OpU32(wasm.OpLocalGet, 0).
		CallIndirect(0).End()
	m := &wasm.Module{
		Types: []wasm.FuncType{
			{Params: []wasm.ValueType{i32, i32}, Results: []wasm.ValueType{i32}},
			{Params: []wasm.ValueType{i32, i32, i32}, Results: []wasm.ValueType{i32}},
		},
		Functions: []uint32{0, 0, 1},
		Tables:    []wasm.TableType{{ElemType: wasm.ValueTypeFuncref, Limits: wasm.Limits{Min: 3}}},
		Elements:  []wasm.ElementSegment{{Offset: wasm.I32Const(0), Indices: []uint32{0, 1}}},
		Codes:     []wasm.Code{{Body: add.Bytes()}, {Body: mul.Bytes()}, {Body: entry.Bytes()}},
		Exports:   []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 2}},
	}
	p := newTierPair(t, buildModule(t, m), Config{}, nil)
	p.call("f", I32(0), I32(6), I32(7))
	p.call("f", I32(1), I32(6), I32(7))
	p.call("f", I32(2), I32(1), I32(1)) // uninitialized element: trap
	p.call("f", I32(9), I32(1), I32(1)) // out of table bounds: trap
}

func TestTierDiffGlobalsAndSelect(t *testing.T) {
	b := new(wasm.BodyBuilder).
		OpU32(wasm.OpGlobalGet, 0).I32Const(1).Op(wasm.OpI32Add).
		OpU32(wasm.OpGlobalSet, 0).
		OpU32(wasm.OpGlobalGet, 0).I32Const(-1).
		OpU32(wasm.OpLocalGet, 0).Op(wasm.OpSelect).
		End()
	m := singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, nil, b)
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{ValType: i32, Mutable: true},
		Init: wasm.I32Const(10),
	}}
	p := newTierPair(t, buildModule(t, m), Config{}, nil)
	p.call("f", I32(1))
	p.call("f", I32(0))
	p.call("f", I32(5))
}

func TestTierDiffMemoryGrow(t *testing.T) {
	b := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).MemoryOp(wasm.OpMemoryGrow).Op(wasm.OpDrop).
		MemoryOp(wasm.OpMemorySize).
		End()
	m := singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, nil, b)
	m.Memories = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 4, HasMax: true}}}
	p := newTierPair(t, buildModule(t, m), Config{}, nil)
	p.call("f", I32(2))
	p.call("f", I32(100))
	p.call("f", I32(0))
}

func TestTierDiffMemoryCopyFill(t *testing.T) {
	b := new(wasm.BodyBuilder)
	// fill [16, 16+n) with v, copy it to [4096+d, ...), load a probe byte.
	b.I32Const(16).OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Misc(wasm.MiscMemoryFill)
	b.I32Const(4096).I32Const(16).OpU32(wasm.OpLocalGet, 1).Misc(wasm.MiscMemoryCopy)
	b.I32Const(4096).MemArg(wasm.OpI32Load8U, 0, 0)
	b.End()
	m := singleFunc([]wasm.ValueType{i32, i32}, []wasm.ValueType{i32}, nil, b)
	m.Memories = []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}}
	p := newTierPair(t, buildModule(t, m), Config{}, nil)
	p.call("f", I32(0x5a), I32(64))
	p.call("f", I32(0x00), I32(0))
	p.call("f", I32(0x7f), I32(1<<20)) // OOB fill: trap
}

func TestTierDiffUnreachableAndStack(t *testing.T) {
	b := new(wasm.BodyBuilder).Op(wasm.OpUnreachable).End()
	p := newTierPair(t, buildModule(t, singleFunc(nil, nil, nil, b)), Config{}, nil)
	p.call("f")

	rec := new(wasm.BodyBuilder).OpU32(wasm.OpCall, 0).End()
	p = newTierPair(t, buildModule(t, singleFunc(nil, nil, nil, rec)), Config{MaxCallDepth: 100}, nil)
	p.call("f")
}

func TestTierDiffTruncTraps(t *testing.T) {
	b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI32TruncF64S).End()
	p := newTierPair(t, buildModule(t, singleFunc([]wasm.ValueType{f64t}, []wasm.ValueType{i32}, nil, b)), Config{}, nil)
	p.call("f", F64(12.9))
	p.call("f", F64(math.NaN()))
	p.call("f", F64(1e30))
	p.call("f", F64(-1e30))
}

// Fuel sweep over a loop: the block-granularity fuel schedule, the exact trap
// point, and the remaining fuel must be identical at every budget.
func TestTierDiffFuelSweep(t *testing.T) {
	for _, fuel := range []uint64{1, 5, 13, 37, 100, 1000, 100000} {
		p := newTierPair(t, factorialModule(t), Config{Fuel: fuel}, nil)
		p.call("f", I32(12))
		p.call("f", I32(12))
	}
	for _, fuel := range []uint64{1, 37, 1000, 50000} {
		p := newTierPair(t, fibModule(t), Config{Fuel: fuel}, nil)
		p.call("f", I32(12))
	}
	for _, fuel := range []uint64{1, 100, 12345} {
		p := newTierPair(t, churnModule(t), Config{Fuel: fuel}, nil)
		p.call("f", I32(1000))
	}
}

// Host imports are always invoked through the shared nested-call path; the
// surrounding tier-1 frames must still account identically.
func TestTierDiffHostImport(t *testing.T) {
	b := new(wasm.BodyBuilder).
		OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpCall, 0).
		OpU32(wasm.OpLocalGet, 0).Op(wasm.OpI32Add).
		End()
	m := &wasm.Module{
		Types: []wasm.FuncType{{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}}},
		Imports: []wasm.Import{
			{Module: "env", Name: "double", Kind: wasm.ExternalFunc, Func: 0},
		},
		Functions: []uint32{0},
		Memories:  []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}},
		Codes:     []wasm.Code{{Body: b.Bytes()}},
		Exports:   []wasm.Export{{Name: "f", Kind: wasm.ExternalFunc, Index: 1}},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	setup := func(s *Store) {
		s.NewHostModule("env").AddFunc("double", HostFunc{
			Type: wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}},
			Fn: func(ctx *HostContext, args []Value) ([]Value, error) {
				ctx.Memory.WriteUint32(8, AsU32(args[0]))
				return []Value{I32(AsI32(args[0]) * 2)}, nil
			},
		})
	}
	p := newTierPair(t, m, Config{}, setup)
	p.call("f", I32(21))
	p.call("f", I32(-3))
}

// TestTierDiffNonCanonicalI32: an i32 is its low 32 bits, so an argument or
// a host result with garbage above them is that i32 everywhere in the guest.
// Each function tests or returns its i32 a different way; at both tiers
// 0xdeadbeef_00000000 must read as 0, and the caller's slice stays as passed.
func TestTierDiffNonCanonicalI32(t *testing.T) {
	ifz := func(b *wasm.BodyBuilder) *wasm.BodyBuilder {
		return b.Block(wasm.OpIf, wasm.BlockTypeOf(i32)).I32Const(1).Op(wasm.OpElse).I32Const(0).End()
	}
	get := func() *wasm.BodyBuilder { return new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0) }
	bodies := []struct {
		name string
		b    *wasm.BodyBuilder
		want Value
	}{
		{"ifz", ifz(get()), 0},
		{"eqz", get().Op(wasm.OpI32Eqz), 1},
		{"sel", new(wasm.BodyBuilder).I32Const(1).I32Const(0).OpU32(wasm.OpLocalGet, 0).Op(wasm.OpSelect), 0},
		{"brif", new(wasm.BodyBuilder).Block(wasm.OpBlock, wasm.BlockTypeOf(i32)).I32Const(1).
			OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpBrIf, 0).Op(wasm.OpDrop).I32Const(0).End(), 0},
		{"id", get(), 0},
		{"host", ifz(new(wasm.BodyBuilder).OpU32(wasm.OpCall, 0)), 0},
	}
	unary := wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}}
	garbage := wasm.FuncType{Results: []wasm.ValueType{i32}}
	m := &wasm.Module{
		Types:   []wasm.FuncType{unary, garbage},
		Imports: []wasm.Import{{Module: "env", Name: "garbage", Kind: wasm.ExternalFunc, Func: 1}},
	}
	for i, f := range bodies {
		m.Functions = append(m.Functions, 0)
		m.Codes = append(m.Codes, wasm.Code{Body: f.b.End().Bytes()})
		m.Exports = append(m.Exports, wasm.Export{Name: f.name, Kind: wasm.ExternalFunc, Index: uint32(i + 1)})
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	const dirty = 0xdeadbeef_00000000
	setup := func(s *Store) {
		s.NewHostModule("env").AddFunc("garbage", HostFunc{Type: garbage,
			Fn: func(*HostContext, []Value) ([]Value, error) { return []Value{dirty}, nil }})
	}
	p := newTierPair(t, m, Config{}, setup)
	for _, f := range bodies {
		args := []Value{dirty}
		if res, err := p.call(f.name, args...); err != nil || res[0] != f.want {
			t.Errorf("%s(%#x) = %#x, %v; want %#x", f.name, uint64(dirty), res, err, f.want)
		}
		if args[0] != dirty {
			t.Errorf("%s: the caller's argument became %#x", f.name, args[0])
		}
	}
}

// The full property corpus shapes, dual-tier: every binFunc/unaryFunc module
// from property_test.go is run through both tiers over a value sweep.
func TestTierDiffOperatorSweep(t *testing.T) {
	binOps := []struct {
		vt wasm.ValueType
		op wasm.Opcode
	}{
		{i32, wasm.OpI32Add}, {i32, wasm.OpI32Sub}, {i32, wasm.OpI32Mul},
		{i32, wasm.OpI32DivS}, {i32, wasm.OpI32DivU}, {i32, wasm.OpI32RemS}, {i32, wasm.OpI32RemU},
		{i32, wasm.OpI32And}, {i32, wasm.OpI32Or}, {i32, wasm.OpI32Xor},
		{i32, wasm.OpI32Shl}, {i32, wasm.OpI32ShrS}, {i32, wasm.OpI32ShrU},
		{i32, wasm.OpI32Rotl}, {i32, wasm.OpI32Rotr},
		{i32, wasm.OpI32Eq}, {i32, wasm.OpI32Ne}, {i32, wasm.OpI32LtS}, {i32, wasm.OpI32LtU},
		{i32, wasm.OpI32GtS}, {i32, wasm.OpI32GtU}, {i32, wasm.OpI32LeS}, {i32, wasm.OpI32LeU},
		{i32, wasm.OpI32GeS}, {i32, wasm.OpI32GeU},
		{i64t, wasm.OpI64Add}, {i64t, wasm.OpI64Sub}, {i64t, wasm.OpI64Mul},
		{i64t, wasm.OpI64DivS}, {i64t, wasm.OpI64DivU}, {i64t, wasm.OpI64RemS}, {i64t, wasm.OpI64RemU},
		{i64t, wasm.OpI64And}, {i64t, wasm.OpI64Or}, {i64t, wasm.OpI64Xor},
		{i64t, wasm.OpI64Shl}, {i64t, wasm.OpI64ShrS}, {i64t, wasm.OpI64ShrU},
		{i64t, wasm.OpI64Eq}, {i64t, wasm.OpI64Ne}, {i64t, wasm.OpI64LtS}, {i64t, wasm.OpI64LtU},
		{i64t, wasm.OpI64GtS}, {i64t, wasm.OpI64GtU}, {i64t, wasm.OpI64LeS}, {i64t, wasm.OpI64LeU},
		{i64t, wasm.OpI64GeS}, {i64t, wasm.OpI64GeU},
		{f32t, wasm.OpF32Add}, {f32t, wasm.OpF32Div}, {f32t, wasm.OpF32Min},
		{f32t, wasm.OpF32Eq}, {f32t, wasm.OpF32Ne}, {f32t, wasm.OpF32Lt}, {f32t, wasm.OpF32Gt},
		{f32t, wasm.OpF32Le}, {f32t, wasm.OpF32Ge},
		{f64t, wasm.OpF64Add}, {f64t, wasm.OpF64Sub}, {f64t, wasm.OpF64Mul},
		{f64t, wasm.OpF64Div}, {f64t, wasm.OpF64Max}, {f64t, wasm.OpF64Copysign},
		{f64t, wasm.OpF64Eq}, {f64t, wasm.OpF64Lt},
	}
	vals := []Value{0, 1, 2, I32(-1), I32(math.MinInt32), uint64(math.MaxUint32),
		F64(1.5), F64(-0.0), F64(math.NaN()), F64(math.Inf(1)), I64(math.MinInt64), 63, 64}
	intVals := []Value{0, 1, 2, I32(-1), I32(math.MinInt32), uint64(math.MaxUint32), I64(math.MinInt64), 63, 64}
	for _, tc := range binOps {
		b := new(wasm.BodyBuilder).
			OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).Op(tc.op).End()
		out := tc.vt
		if isComparisonOp(tc.op) {
			out = i32
		}
		m := buildModule(t, singleFunc([]wasm.ValueType{tc.vt, tc.vt}, []wasm.ValueType{out}, nil, b))
		p := newTierPair(t, m, Config{}, nil)
		for _, a := range vals {
			for _, bb := range vals {
				p.call("f", a, bb)
			}
		}
		if tc.vt != i32 && tc.vt != i64t {
			continue
		}
		// The same operator with a constant right operand, every integer
		// value as the constant: the left operand read from a local
		// ([local.get][const][op]) or from the stack ([const][op]), the
		// result pushed or stored into a local.
		for _, k := range intVals {
			p := newTierPair(t, constOperandModule(t, tc.vt, out, tc.op, k), Config{}, nil)
			for _, name := range constOperandForms {
				for _, a := range vals {
					p.call(name, a)
				}
			}
		}
	}
	unaryOps := []struct {
		vt wasm.ValueType
		op wasm.Opcode
	}{
		{i32, wasm.OpI32Eqz}, {i32, wasm.OpI32Clz}, {i32, wasm.OpI32Ctz}, {i32, wasm.OpI32Popcnt},
		{i32, wasm.OpI32Extend8S}, {i32, wasm.OpI32Extend16S},
		{i64t, wasm.OpI64Eqz}, {i64t, wasm.OpI64Clz}, {i64t, wasm.OpI64Extend32S},
		{f64t, wasm.OpF64Abs}, {f64t, wasm.OpF64Neg}, {f64t, wasm.OpF64Sqrt},
		{f64t, wasm.OpF64Floor}, {f64t, wasm.OpF64Nearest},
	}
	for _, tc := range unaryOps {
		b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Op(tc.op).End()
		out := tc.vt
		if isComparisonOp(tc.op) {
			out = i32
		}
		m := buildModule(t, singleFunc([]wasm.ValueType{tc.vt}, []wasm.ValueType{out}, nil, b))
		p := newTierPair(t, m, Config{}, nil)
		for _, v := range vals {
			p.call("f", v)
		}
	}
}

// constOperandForms names the exports of constOperandModule: the left
// operand from a local or from the stack (a local.tee keeps the local.get
// from fusing with the constant), the result pushed or set into a local.
var constOperandForms = []string{"local-push", "local-set", "stack-push", "stack-set"}

// constOperandModule builds one (vt) -> (out) function per constOperandForms
// entry, each computing param op k.
func constOperandModule(t *testing.T, vt, out wasm.ValueType, op wasm.Opcode, k Value) *wasm.Module {
	t.Helper()
	m := &wasm.Module{Types: []wasm.FuncType{{Params: []wasm.ValueType{vt}, Results: []wasm.ValueType{out}}}}
	for i, name := range constOperandForms {
		b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0)
		if i >= 2 {
			b.OpU32(wasm.OpLocalTee, 1)
		}
		if vt == i32 {
			b.I32Const(AsI32(k))
		} else {
			b.I64Const(AsI64(k))
		}
		b.Op(op)
		if i%2 == 1 {
			b.OpU32(wasm.OpLocalSet, 2).OpU32(wasm.OpLocalGet, 2)
		}
		m.Functions = append(m.Functions, 0)
		m.Codes = append(m.Codes, wasm.Code{Locals: []wasm.ValueType{vt, out}, Body: b.End().Bytes()})
		m.Exports = append(m.Exports, wasm.Export{Name: name, Kind: wasm.ExternalFunc, Index: uint32(i)})
	}
	return buildModule(t, m)
}

// TestTierDiffTruncSat runs all eight saturating truncations at both tiers.
func TestTierDiffTruncSat(t *testing.T) {
	for misc := wasm.MiscI32TruncSatF32S; misc <= wasm.MiscI64TruncSatF64U; misc++ {
		out := i32
		if misc >= wasm.MiscI64TruncSatF32S {
			out = i64t
		}
		in, arg := f64t, F64
		if misc%4 < 2 {
			in, arg = f32t, func(v float64) Value { return F32(float32(v)) }
		}
		b := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).Misc(misc).End()
		m := buildModule(t, singleFunc([]wasm.ValueType{in}, []wasm.ValueType{out}, nil, b))
		p := newTierPair(t, m, Config{}, nil)
		for _, v := range []float64{0, 1.7, -1.7, 1e30, -1e30, math.NaN(), math.Inf(-1)} {
			p.call("f", arg(v))
		}
	}
}

// Branches that carry values across erased block boundaries.
func TestTierDiffBranchWithValues(t *testing.T) {
	b := new(wasm.BodyBuilder)
	b.Block(wasm.OpBlock, wasm.BlockTypeOf(i32))
	b.I32Const(7)
	b.OpU32(wasm.OpLocalGet, 0)
	b.OpU32(wasm.OpBrIf, 0)
	b.Op(wasm.OpDrop)
	b.I32Const(13)
	b.End()
	b.End()
	m := buildModule(t, singleFunc([]wasm.ValueType{i32}, []wasm.ValueType{i32}, nil, b))
	p := newTierPair(t, m, Config{}, nil)
	p.call("f", I32(1))
	p.call("f", I32(0))
}

// --- tier-up mechanics ------------------------------------------------------

// The hotness policy must flip an instance to tier 1 mid-stream, after
// tierUpInvokes invokes at tier 0, with no observable change other than
// LastInvokeTier.
func TestTierUpHotnessPolicy(t *testing.T) {
	m := factorialModule(t)
	s := NewStore(Config{})
	inst, err := s.Instantiate(m, "hot")
	if err != nil {
		t.Fatal(err)
	}
	inst.Code().SetTierPolicy(TierPolicy{Mode: TierModeHotness})
	want := AsI32(mustCall(t, inst, "f", I32(10))[0])
	for i := 1; i < 2*tierUpInvokes; i++ {
		got := AsI32(mustCall(t, inst, "f", I32(10))[0])
		if got != want {
			t.Fatalf("invoke %d: %d, want %d", i, got, want)
		}
		if tier, hot := s.LastInvokeTier(), i >= tierUpInvokes; (tier == 1) != hot {
			t.Fatalf("invoke %d served at tier %d", i, tier)
		}
	}
}

func mustCall(t *testing.T, inst *Instance, name string, args ...Value) []Value {
	t.Helper()
	res, err := inst.Call(name, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// tierUpCount is a TierUpListener counting the tier-ups it sees.
type tierUpCount struct{ atomic.Int32 }

func (c *tierUpCount) TierUp(*Tier1Code, time.Duration) { c.Add(1) }

// Concurrent tier-up on a shared ModuleCode: the lowering is singleflighted
// (the listener fires exactly once) and every store then serves tier 1. Run
// with -race.
func TestConcurrentTierUpSingleflight(t *testing.T) {
	m := factorialModule(t)
	mc, err := Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetTierPolicy(TierPolicy{Mode: TierModeHotness})
	var tierUps tierUpCount
	mc.SetTierUpListener(&tierUps)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewStore(Config{})
			inst, err := s.InstantiateCompiled(mc, "")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				res, err := inst.Call("f", I32(10))
				if err != nil {
					errs <- err
					return
				}
				if AsI32(res[0]) != 3628800 {
					errs <- err
					return
				}
			}
			if s.LastInvokeTier() != 1 {
				t.Error("worker finished without reaching tier 1")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tierUps.Load(); got != 1 {
		t.Fatalf("tier-up listener fired %d times, want exactly 1 (singleflight)", got)
	}
}
