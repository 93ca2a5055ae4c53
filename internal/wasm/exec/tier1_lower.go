package exec

import (
	"wasmcontainers/internal/wasm"
)

// Accounting estimates for the tier-1 artifact: one closure plus its ops-
// table entry per surviving instruction, and a fixed per-function header.
const (
	t1OpBytes   = 56
	t1FuncBytes = 96
)

// lowerTier1 lowers every function body of mc to tier 1. Functions whose
// operand-stack heights cannot be statically inferred (only possible in
// unreachable code corners) keep a nil slot and stay at tier 0 forever.
func lowerTier1(mc *ModuleCode) *Tier1Code {
	tc := &Tier1Code{funcs: make([]*t1func, len(mc.codes))}
	for i := range mc.codes {
		ft := mc.m.Types[mc.m.Functions[i]]
		np := len(ft.Params)
		nl := np + len(mc.m.Codes[i].Locals)
		f := lowerFunc(mc.m, &mc.codes[i], np, nl, len(ft.Results), tc.funcs, mc.nImported)
		tc.funcs[i] = f
		if f != nil {
			tc.lowered++
			tc.bytes += int64(len(f.ops))*t1OpBytes + t1FuncBytes
			tc.stack += f.slots
		}
	}
	tc.stack = min(tc.stack, t1StackCap)
	tc.bytes += 64
	return tc
}

// inferHeights computes the operand-stack height at entry to every reachable
// instruction of a fused body by dataflow from pc 0. Wasm validation makes
// the height at each pc path-independent, so a single forward pass suffices;
// any inconsistency (or an out-of-range height) aborts the lowering and the
// function stays at tier 0. Unreachable pcs are left at -1.
func inferHeights(m *wasm.Module, cc *compiledCode) []int {
	n := len(cc.instrs)
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	maxH := cc.maxHeight
	work := make([]int, 0, 64)
	ok := true
	visit := func(pc, ht int) {
		if pc < 0 || pc >= n || ht < 0 || ht > maxH {
			ok = false
			return
		}
		if h[pc] == -1 {
			h[pc] = ht
			work = append(work, pc)
			return
		}
		if h[pc] != ht {
			ok = false
		}
	}
	visit(0, 0)
	for len(work) > 0 && ok {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		ht := h[pc]
		in := &cc.instrs[pc]
		switch in.op {
		case wasm.OpUnreachable, wasm.OpReturn:
			// Terminal.
		case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd:
			visit(pc+1, ht)
		case wasm.OpIf:
			visit(pc+1, ht-1)
			visit(int(in.a), ht-1)
		case wasm.OpElse:
			visit(int(in.a), ht)
		case wasm.OpBr:
			d, _ := unpackDropKeep(in.b)
			visit(int(in.a), ht-d)
		case wasm.OpBrIf:
			d, _ := unpackDropKeep(in.b)
			visit(pc+1, ht-1)
			visit(int(in.a), ht-1-d)
		case opCmpBrIf:
			d, _ := unpackDropKeep(in.b)
			visit(pc+1, ht-2)
			visit(int(in.a), ht-2-d)
		case wasm.OpBrTable:
			for _, ent := range cc.brTables[in.misc] {
				d, _ := unpackDropKeep(ent.dropKeep)
				visit(int(ent.pc), ht-1-d)
			}
		case wasm.OpCall:
			ft, err := m.FuncTypeAt(uint32(in.a))
			if err != nil {
				ok = false
				break
			}
			visit(pc+1, ht-len(ft.Params)+len(ft.Results))
		case wasm.OpCallIndirect:
			ft := m.Types[in.a]
			visit(pc+1, ht-1-len(ft.Params)+len(ft.Results))
		case wasm.OpDrop, wasm.OpLocalSet, wasm.OpGlobalSet:
			visit(pc+1, ht-1)
		case wasm.OpSelect:
			visit(pc+1, ht-2)
		case wasm.OpLocalGet, wasm.OpGlobalGet, wasm.OpMemorySize,
			wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			visit(pc+1, ht+1)
		case wasm.OpLocalTee, wasm.OpMemoryGrow, opI32AddConst, opI64AddConst:
			visit(pc+1, ht)
		case opLocalGetPair:
			visit(pc+1, ht+2)
		case opLocalBinop:
			visit(pc+1, ht+1)
		case wasm.OpMisc:
			if in.misc == wasm.MiscMemoryCopy || in.misc == wasm.MiscMemoryFill {
				visit(pc+1, ht-3)
			} else {
				visit(pc+1, ht)
			}
		default:
			nin, nout, _, _ := fixedShape(in.op)
			visit(pc+1, ht-nin+nout)
		}
	}
	if !ok {
		return nil
	}
	return h
}

// t1Erased reports ops with no tier-1 runtime effect: structure markers and
// drops (a drop is a pure height change, and heights are static). Their
// instruction counts are folded into the surviving neighbors.
func t1Erased(op wasm.Opcode) bool {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd, wasm.OpDrop:
		return true
	}
	return false
}

// t1builder carries the per-function lowering state shared by the closure
// builders.
type t1builder struct {
	m       *wasm.Module
	cc      *compiledCode
	heights []int
	skip    []int    // skip[pc]: next surviving pc at or after pc
	skipCnt []uint64 // erased instructions in [pc, skip[pc])
	idxOf   []int    // surviving pc -> dense tier-1 index (-1 for erased)
	nl      int
	bad     bool

	// fn is the body being lowered: its constants fill in as kslot meets
	// them, and the call closures pass it to the fast path (the caller whose
	// constants a callee may cover). kbase is the slot of the first constant.
	fn    *t1func
	kbase int

	// tcFuncs is the artifact's (still being filled) function table and
	// nImported the module's imported-function count: a call to a local
	// function resolves its tier-1 body through this shared slice directly,
	// skipping the per-call atomic artifact lookup. Imports still resolve
	// dynamically (their body lives in another module's artifact).
	tcFuncs   []*t1func
	nImported int
}

func (b *t1builder) fail() { b.bad = true }

// tgt maps a tier-0 branch target (possibly an erased marker) to the tier-1
// index of the first surviving instruction at or after it.
func (b *t1builder) tgt(pc int) int {
	sp := b.skip[pc]
	if sp >= len(b.idxOf) {
		b.fail()
		return 0
	}
	return b.idxOf[sp]
}

// fall returns the fall-through successor index and the credit (erased
// instructions crossed) for the instruction at pc.
func (b *t1builder) fall(pc int) (next int, credit uint64) {
	return b.tgt(pc + 1), b.skipCnt[pc+1]
}

// slot returns the register slot k values below the top of the operand
// stack at entry height ht (k=1 is the top), failing on underflow.
func (b *t1builder) slot(ht, k int) int {
	if ht-k < 0 {
		b.fail()
		return 0
	}
	return b.nl + ht - k
}

// kslot returns the register slot holding the integer constant v, giving
// it one in the constant region on first use.
func (b *t1builder) kslot(v Value) int {
	for i, k := range b.fn.consts {
		if k == v {
			return b.kbase + i
		}
	}
	b.fn.consts = append(b.fn.consts, v)
	return b.kbase + len(b.fn.consts) - 1
}

// branch movement: where a taken branch's kept values move. drop==0 yields
// dst==src and the closures skip the copy.
func (b *t1builder) moveFor(htAfterPops int, dropKeep uint64) (dst, src, keep int) {
	drop, keep := unpackDropKeep(dropKeep)
	src = b.nl + htAfterPops - keep
	dst = src - drop
	if dst < b.nl || src < b.nl {
		b.fail()
	}
	return dst, src, keep
}

// lowerFunc lowers one fused body to a tier-1 closure table, or nil when the
// body resists static lowering.
func lowerFunc(m *wasm.Module, cc *compiledCode, np, nl, nr int, tcFuncs []*t1func, nImported int) *t1func {
	heights := inferHeights(m, cc)
	if heights == nil {
		return nil
	}
	instrs := cc.instrs
	n := len(instrs)
	skip := make([]int, n+1)
	skipCnt := make([]uint64, n+1)
	skip[n] = n
	for pc := n - 1; pc >= 0; pc-- {
		if t1Erased(instrs[pc].op) {
			skip[pc] = skip[pc+1]
			skipCnt[pc] = skipCnt[pc+1] + 1
		} else {
			skip[pc] = pc
		}
	}
	idxOf := make([]int, n)
	k := 0
	for pc := 0; pc < n; pc++ {
		if t1Erased(instrs[pc].op) {
			idxOf[pc] = -1
		} else {
			idxOf[pc] = k
			k++
		}
	}
	fn := &t1func{ops: make([]t1op, 0, k), np: np, nl: nl, nr: nr, lead: skipCnt[0]}
	b := &t1builder{
		m: m, cc: cc, heights: heights,
		skip: skip, skipCnt: skipCnt, idxOf: idxOf, nl: nl,
		tcFuncs: tcFuncs, nImported: nImported,
		fn: fn, kbase: nl + cc.maxHeight,
	}
	for pc := 0; pc < n; pc++ {
		if idxOf[pc] < 0 {
			continue
		}
		fn.ops = append(fn.ops, b.build(pc))
		if b.bad {
			return nil
		}
	}
	fn.slots = b.kbase + len(fn.consts)
	return fn
}

// build lowers the surviving instruction at pc to its closure.
func (b *t1builder) build(pc int) t1op {
	in := &b.cc.instrs[pc]
	ht := b.heights[pc]
	if ht < 0 {
		// Statically unreachable: dataflow covers every executable path, so
		// this closure can never run. A loud failure beats silent corruption
		// if that invariant is ever broken.
		return func(fr *t1frame) int {
			panic("exec: tier-1 executed statically unreachable code")
		}
	}
	if op := b.tryFuse(pc); op != nil {
		return op
	}
	switch in.op {
	case wasm.OpUnreachable:
		return func(fr *t1frame) int {
			fr.executed++
			fr.err = newTrap(TrapUnreachable)
			return t1Trapped
		}
	case wasm.OpIf:
		c := b.slot(ht, 1)
		j := b.ifExits(pc, 0)
		return func(fr *t1frame) int { return j.to(fr, fr.regs[c] != 0) }
	case wasm.OpElse:
		t := b.tgt(int(in.a))
		cnt := 1 + b.skipCnt[in.a]
		return func(fr *t1frame) int {
			fr.executed += cnt
			return t
		}
	case wasm.OpBr:
		t := b.tgt(int(in.a))
		cred := b.skipCnt[in.a]
		dst, src, keep := b.moveFor(ht, in.b)
		return func(fr *t1frame) int {
			fr.executed++
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if keep > 0 && dst != src {
				copy(fr.regs[dst:dst+keep], fr.regs[src:src+keep])
			}
			fr.executed += cred
			return t
		}
	case wasm.OpBrIf:
		c := b.slot(ht, 1)
		t := b.tgt(int(in.a))
		crT := b.skipCnt[in.a]
		next, crF := b.fall(pc)
		dst, src, keep := b.moveFor(ht-1, in.b)
		return func(fr *t1frame) int {
			fr.executed++
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if fr.regs[c] != 0 {
				if keep > 0 && dst != src {
					copy(fr.regs[dst:dst+keep], fr.regs[src:src+keep])
				}
				fr.executed += crT
				return t
			}
			fr.executed += crF
			return next
		}
	case opCmpBrIf:
		return b.buildCmpBrIf(wasm.Opcode(in.misc), pc, ht-2, b.slot(ht, 2), b.slot(ht, 1), 2)
	case wasm.OpBrTable:
		c := b.slot(ht, 1)
		src := b.cc.brTables[in.misc]
		tbl := make([]t1tblEnt, len(src))
		for i, ent := range src {
			dst, s0, keep := b.moveFor(ht-1, ent.dropKeep)
			tbl[i] = t1tblEnt{
				tgt: b.tgt(int(ent.pc)), cred: b.skipCnt[ent.pc],
				dst: dst, src: s0, keep: keep,
			}
		}
		return func(fr *t1frame) int {
			fr.executed++
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			i := AsU32(fr.regs[c])
			e := &tbl[len(tbl)-1]
			if int(i) < len(tbl)-1 {
				e = &tbl[i]
			}
			if e.keep > 0 && e.dst != e.src {
				copy(fr.regs[e.dst:e.dst+e.keep], fr.regs[e.src:e.src+e.keep])
			}
			fr.executed += e.cred
			return e.tgt
		}
	case wasm.OpReturn:
		_, keep := unpackDropKeep(in.b)
		rs := b.slot(ht, keep)
		if keep == 0 {
			return func(fr *t1frame) int {
				fr.executed++
				return t1Return
			}
		}
		if keep == 1 {
			return func(fr *t1frame) int {
				fr.executed++
				fr.regs[0] = fr.regs[rs]
				return t1Return
			}
		}
		return func(fr *t1frame) int {
			fr.executed++
			copy(fr.regs[:keep], fr.regs[rs:rs+keep])
			return t1Return
		}
	case wasm.OpCall:
		fi := uint32(in.a)
		ft, err := b.m.FuncTypeAt(fi)
		if err != nil {
			b.fail()
			return nil
		}
		aslot := b.slot(ht, len(ft.Params))
		next, crF := b.fall(pc)
		self := b.fn
		if lk := int(fi) - b.nImported; lk >= 0 {
			tcFuncs := b.tcFuncs
			return func(fr *t1frame) int {
				fr.executed++
				if !fr.chargeFuel() {
					fr.err = newTrap(TrapOutOfFuel)
					return t1Trapped
				}
				callee := &fr.inst.funcs[fi]
				var err error
				if t1 := tcFuncs[lk]; t1 != nil {
					var done bool
					if done, err = fr.s.t1FastCall(fr, self, callee, t1, aslot); !done {
						err = fr.inst.invokeNested(callee,
							fr.regs[aslot:aslot+callee.numParams],
							fr.regs[aslot:aslot+len(callee.typ.Results)])
					}
				} else {
					err = fr.callFunc(self, callee, aslot)
				}
				if err != nil {
					fr.err = err
					return t1Trapped
				}
				fr.executed += crF
				return next
			}
		}
		return func(fr *t1frame) int {
			fr.executed++
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if err := fr.callFunc(self, &fr.inst.funcs[fi], aslot); err != nil {
				fr.err = err
				return t1Trapped
			}
			fr.executed += crF
			return next
		}
	case wasm.OpCallIndirect:
		ti := uint32(in.a)
		ft := b.m.Types[ti]
		c := b.slot(ht, 1)
		aslot := b.slot(ht, 1+len(ft.Params))
		next, crF := b.fall(pc)
		self := b.fn
		return func(fr *t1frame) int {
			fr.executed++
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			inst := fr.inst
			ei := AsU32(fr.regs[c])
			if inst.table == nil || int(ei) >= inst.table.Len() {
				fr.err = newTrap(TrapTableOutOfBounds)
				return t1Trapped
			}
			callee := inst.table.elems[ei]
			if callee == nil {
				fr.err = newTrap(TrapUninitializedElement)
				return t1Trapped
			}
			if !callee.typ.Equal(inst.Module.Types[ti]) {
				fr.err = newTrap(TrapIndirectCallTypeMismatch)
				return t1Trapped
			}
			if err := fr.callFunc(self, callee, aslot); err != nil {
				fr.err = err
				return t1Trapped
			}
			fr.executed += crF
			return next
		}
	case wasm.OpSelect:
		c := b.slot(ht, 1)
		v2 := b.slot(ht, 2)
		v1 := b.slot(ht, 3)
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			if fr.regs[c] == 0 {
				fr.regs[v1] = fr.regs[v2]
			}
			fr.executed += cnt
			return next
		}
	case wasm.OpLocalGet:
		i := int(in.a)
		d := b.nl + ht
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[d] = fr.regs[i]
			fr.executed += cnt
			return next
		}
	case wasm.OpLocalSet:
		i := int(in.a)
		c := b.slot(ht, 1)
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[i] = fr.regs[c]
			fr.executed += cnt
			return next
		}
	case wasm.OpLocalTee:
		i := int(in.a)
		c := b.slot(ht, 1)
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[i] = fr.regs[c]
			fr.executed += cnt
			return next
		}
	case wasm.OpGlobalGet:
		gi := int(in.a)
		d := b.nl + ht
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[d] = fr.inst.globals[gi].Val
			fr.executed += cnt
			return next
		}
	case wasm.OpGlobalSet:
		gi := int(in.a)
		c := b.slot(ht, 1)
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.inst.globals[gi].Val = fr.regs[c]
			fr.executed += cnt
			return next
		}
	case wasm.OpMemorySize:
		d := b.nl + ht
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[d] = I32(int32(fr.mem.Pages()))
			fr.executed += cnt
			return next
		}
	case wasm.OpMemoryGrow:
		c := b.slot(ht, 1)
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[c] = I32(fr.mem.Grow(AsU32(fr.regs[c])))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		v := in.a
		d := b.nl + ht
		next, crF := b.fall(pc)
		cnt := 1 + crF
		return func(fr *t1frame) int {
			fr.regs[d] = v
			fr.executed += cnt
			return next
		}
	case opI32AddConst:
		k := int32(uint32(in.a))
		c := b.slot(ht, 1)
		next, crF := b.fall(pc)
		cnt := 2 + crF // two fused originals
		return func(fr *t1frame) int {
			fr.regs[c] = I32(AsI32(fr.regs[c]) + k)
			fr.executed += cnt
			return next
		}
	case opI64AddConst:
		k := in.a
		c := b.slot(ht, 1)
		next, crF := b.fall(pc)
		cnt := 2 + crF
		return func(fr *t1frame) int {
			fr.regs[c] += k
			fr.executed += cnt
			return next
		}
	case opLocalGetPair:
		i := int(in.a >> 32)
		j := int(uint32(in.a))
		d := b.nl + ht
		next, crF := b.fall(pc)
		cnt := 2 + crF
		return func(fr *t1frame) int {
			fr.regs[d] = fr.regs[i]
			fr.regs[d+1] = fr.regs[j]
			fr.executed += cnt
			return next
		}
	case opLocalBinop:
		i := int(in.a >> 32)
		j := int(uint32(in.a))
		next, crF := b.fall(pc)
		return b.buildBinopSlots(wasm.Opcode(in.misc), i, j, b.nl+ht, 3, crF, next)
	case wasm.OpMisc:
		return b.buildMisc(pc, in, ht)
	default:
		nin, _, width, isMem := fixedShape(in.op)
		if isMem {
			if width > 0 && nin == 1 {
				return b.buildLoad(in, ht, pc)
			}
			return b.buildStore(in, b.slot(ht, 1), b.slot(ht, 2), 1, pc)
		}
		if nin == 1 {
			return b.buildUnary(in.op, ht, pc)
		}
		x := b.slot(ht, 2)
		// [binop][return] with one result: park it in the result slot and
		// leave the frame in the same closure.
		if q := b.adj(pc); q >= 0 && b.cc.instrs[q].op == wasm.OpReturn {
			if _, keep := unpackDropKeep(b.cc.instrs[q].b); keep == 1 {
				return b.buildBinopSlots(in.op, x, x+1, 0, 1, b.skipCnt[pc+1]+1, t1Return)
			}
		}
		next, crF := b.fall(pc)
		return b.buildBinopSlots(in.op, x, x+1, x, 1, crF, next)
	}
}

// t1tblEnt is one resolved br_table entry in tier-1 form.
type t1tblEnt struct {
	tgt            int
	cred           uint64
	dst, src, keep int
}
