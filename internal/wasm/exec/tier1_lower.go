package exec

import (
	"slices"

	"wasmcontainers/internal/wasm"
)

// Accounting estimates for the tier-1 artifact: one closure plus its ops-
// table entry per closure placed, and a fixed per-function header.
const (
	t1OpBytes   = 56
	t1FuncBytes = 96
)

// lowerTier1 lowers every function body of mc to tier 1, each from the
// compiler's plain instruction stream: the emit pass runs again, without
// tier 0's fusion, and one compiler and one builder reuse their scratch from
// body to body.
func lowerTier1(mc *ModuleCode) *Tier1Code {
	m := mc.m
	tc := &Tier1Code{funcs: make([]*t1func, len(m.Functions))}
	c := &compiler{m: m}
	c.reserveFor(m)
	b := &t1builder{m: m, c: c, tcFuncs: tc.funcs, nImported: mc.nImported}
	for i, ti := range m.Functions {
		ft := m.Types[ti]
		if c.emitBody(ft, &m.Codes[i]) != nil {
			continue // Precompile emitted this body already, so it cannot fail
		}
		np := len(ft.Params)
		f := b.lowerFunc(np, np+len(m.Codes[i].Locals), len(ft.Results))
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

// t1Erased reports ops with no tier-1 runtime effect: structure markers and
// drops (a drop is a pure height change, and heights are static). The
// closure before them retires them on its way through.
func t1Erased(op wasm.Opcode) bool {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd, wasm.OpDrop:
		return true
	}
	return false
}

// t1builder carries the per-function lowering state shared by the walk
// (tier1_fuse.go) and the closure builders. Its scratch is reused from body
// to body.
type t1builder struct {
	m   *wasm.Module
	c   *compiler // the body: c.instrs, c.heights, its branch targets, c.brTables and c.maxH
	nl  int
	bad bool

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

	// The walk runs twice per body. The first, dry pass builds no closure:
	// it only places them, which fills land and cred for every branch
	// target, so the second pass can build closures that jump forward.
	dry  bool
	ops  []t1op   // the closures placed so far (nil while dry)
	land []int32  // per branch target: the tier-1 index a branch to it enters
	cred []uint32 // per branch target: the markers a branch to it retires before land
	stk  []int    // the operand stack: the register slot each entry is read from
	mv   []t1move // flush's moves
	cnt  int      // the first original no placed closure retires; -1 where none falls through
}

func (b *t1builder) fail() { b.bad = true }

// put places a closure (nil while dry).
func (b *t1builder) put(op t1op) { b.ops = append(b.ops, op) }

// tgt returns the tier-1 index a branch to pc enters, and the originals
// the branch retires on the way.
func (b *t1builder) tgt(pc int) (int, uint64) {
	return int(b.land[pc]), uint64(b.cred[pc])
}

// t1span is what a closure retires: own originals up to and including the
// one that can trap or charge fuel, cnt on through to its fall-through
// successor next.
type t1span struct {
	own, cnt uint64
	next     int
}

// span places the next closure, which retires the originals from b.cnt
// through at (own) and on through e, its last instruction, and — when it
// falls through — over the markers and drops after e.
func (b *t1builder) span(at, e int, falls bool) t1span {
	q := e + 1
	if falls {
		q = b.skip(q)
	}
	s := t1span{own: uint64(at + 1 - b.cnt), cnt: uint64(q - b.cnt), next: len(b.ops) + 1}
	b.cnt = q
	if !falls {
		b.cnt = -1
	}
	return s
}

// skip returns the first pc at or after q that is not a marker or a drop.
func (b *t1builder) skip(q int) int {
	for q < len(b.c.instrs) && t1Erased(b.c.instrs[q].op) {
		q++
	}
	return q
}

// kslot returns the register slot holding the constant v, giving it one in
// the constant region on first use.
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

// lowerFunc lowers the body in b.c to a tier-1 closure table, or nil when
// the body resists static lowering.
func (b *t1builder) lowerFunc(np, nl, nr int) *t1func {
	c := b.c
	n := len(c.instrs)
	b.land = slices.Grow(b.land[:0], n)[:n]
	b.cred = slices.Grow(b.cred[:0], n)[:n]
	b.ops, b.stk = slices.Grow(b.ops[:0], n), slices.Grow(b.stk[:0], c.maxH+1)
	b.fn = &t1func{np: np, nl: nl, nr: nr}
	b.nl, b.kbase, b.bad = nl, nl+c.maxH+1, false
	b.dry = true
	b.walk()
	b.dry = false
	b.walk()
	if b.bad {
		return nil
	}
	b.fn.ops = slices.Clone(b.ops)
	b.fn.slots = b.kbase + len(b.fn.consts)
	return b.fn
}

// walk lowers the body in one pass. lowerFunc runs it dry, to place every
// closure, then again to build them.
func (b *t1builder) walk() {
	c := b.c
	b.ops, b.stk, b.cnt = b.ops[:0], b.stk[:0], 0
	b.fn.consts = b.fn.consts[:0]
	for pc := 0; pc < len(c.instrs) && !b.bad; pc++ {
		h := int(c.heights[pc])
		if h < 0 || b.cnt < 0 && !b.c.isTarget(pc) {
			// Never runs: typing-unreachable, or past a closure that does
			// not fall through, where only a branch can enter.
			continue
		}
		if b.c.isTarget(pc) {
			if b.cnt < 0 {
				b.cnt = b.skip(pc)
			} else {
				b.flush(pc, -1, true)
			}
			b.stk = b.stk[:0]
			for i := 0; i < h; i++ {
				b.stk = append(b.stk, b.nl+i)
			}
			b.land[pc], b.cred[pc] = int32(len(b.ops)), uint32(b.cnt-pc)
		}
		pc = b.lower(pc)
	}
}

// pop removes the top entry and returns the slot it is read from.
func (b *t1builder) pop() int {
	n := len(b.stk) - 1
	r := b.stk[n]
	b.stk = b.stk[:n]
	return r
}

// push adds an entry read from slot r.
func (b *t1builder) push(r int) { b.stk = append(b.stk, r) }

// top is the stack slot the next pushed entry's value goes to.
func (b *t1builder) top() int { return b.nl + len(b.stk) }

// lower lowers the instruction at pc and returns the last pc it consumed.
func (b *t1builder) lower(pc int) int {
	in := &b.c.instrs[pc]
	switch op := in.op; op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd:
		b.flush(pc, -1, false)
	case wasm.OpDrop:
		b.pop()
	case wasm.OpLocalGet:
		b.push(int(in.a))
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		b.push(b.kslot(in.a))
	case wasm.OpLocalSet, wasm.OpLocalTee:
		x, v := int(in.a), b.pop()
		b.flush(pc, x, false)
		if op == wasm.OpLocalTee {
			b.push(v)
		}
		b.put(b.buildMoves(append(b.mv[:0], t1move{x, v}), b.span(pc, pc, true)))
	case wasm.OpIf:
		v := b.pop()
		b.flush(pc, -1, false)
		b.put(b.buildIf(v, b.ifExits(pc, b.span(pc, pc, true))))
	case wasm.OpElse, wasm.OpBr, wasm.OpBrTable:
		b.flush(pc, -1, false)
		b.put(b.buildControl(pc, b.span(pc, pc, false)))
	case wasm.OpCall, wasm.OpCallIndirect:
		b.flush(pc, -1, false)
		ft, err := b.m.FuncTypeAt(uint32(in.a))
		if op == wasm.OpCallIndirect {
			ft, err = b.m.Types[in.a], nil
		}
		if err != nil {
			b.fail()
			break
		}
		b.put(b.buildControl(pc, b.span(pc, pc, true)))
		b.stk = b.stk[:len(b.stk)-len(ft.Params)]
		if op == wasm.OpCallIndirect {
			b.pop()
		}
		for range ft.Results {
			b.push(b.top())
		}
	case wasm.OpBrIf:
		v := b.pop()
		b.flush(pc, -1, false)
		b.put(b.buildBrIf(pc, v, b.span(pc, pc, true)))
	case wasm.OpReturn:
		if _, keep := unpackDropKeep(in.b); keep > 1 {
			b.flush(pc, -1, false)
		}
		b.put(b.buildControl(pc, b.span(pc, pc, false)))
	case wasm.OpUnreachable:
		b.put(b.buildControl(pc, b.span(pc, pc, false)))
	case wasm.OpSelect:
		c, v2, v1 := b.pop(), b.pop(), b.pop()
		d := b.top()
		b.push(d)
		b.put(b.buildSelect(c, v2, v1, d, b.span(pc, pc, true)))
	case wasm.OpGlobalGet, wasm.OpMemorySize:
		d := b.top()
		b.push(d)
		b.put(b.buildState(in, d, d, b.span(pc, pc, true)))
	case wasm.OpGlobalSet:
		b.put(b.buildState(in, b.pop(), 0, b.span(pc, pc, true)))
	case wasm.OpMemoryGrow:
		v := b.pop()
		d := b.top()
		b.push(d)
		b.put(b.buildState(in, v, d, b.span(pc, pc, true)))
	case wasm.OpMisc:
		if in.misc == wasm.MiscMemoryCopy || in.misc == wasm.MiscMemoryFill {
			n, v, dst := b.pop(), b.pop(), b.pop()
			b.put(b.buildBulk(in, n, v, dst, b.span(pc, pc, true)))
			break
		}
		v := b.pop()
		d := b.top()
		b.push(d)
		b.put(b.buildTruncSat(in, v, d, b.span(pc, pc, true)))
	case wasm.OpI32Eqz, wasm.OpI64Eqz:
		eq := wasm.OpI32Eq
		if op == wasm.OpI64Eqz {
			eq = wasm.OpI64Eq
		}
		return b.binary(pc, eq, b.pop(), b.kslot(0))
	default:
		nin, _, _, isMem := fixedShape(op)
		switch {
		case isMem && nin == 1:
			a := b.pop()
			d := b.top()
			b.push(d)
			b.put(b.buildLoad(in, a, d, b.span(pc, pc, true)))
		case isMem:
			v, a := b.pop(), b.pop()
			b.put(b.buildStore(in, v, a, b.span(pc, pc, true)))
		case nin == 1:
			v := b.pop()
			d := b.top()
			b.push(d)
			b.put(b.buildUnary(op, v, d, b.span(pc, pc, true)))
		default:
			y := b.pop()
			return b.binary(pc, op, b.pop(), y)
		}
	}
	return pc
}

// t1move copies regs[src] to regs[dst].
type t1move struct{ dst, src int }

// buildMoves lowers a local.set or local.tee, or a flush: the moves in mv,
// none for a cut that only retires what was folded before it.
func (b *t1builder) buildMoves(mv []t1move, s t1span) t1op {
	if b.dry {
		return nil
	}
	cnt, next := s.cnt, s.next
	if len(mv) == 1 {
		d, r := mv[0].dst, mv[0].src
		return func(fr *t1frame) int {
			fr.regs[d] = fr.regs[r]
			fr.executed += cnt
			return next
		}
	}
	mv = slices.Clone(mv)
	return func(fr *t1frame) int {
		for _, m := range mv {
			fr.regs[m.dst] = fr.regs[m.src]
		}
		fr.executed += cnt
		return next
	}
}

// buildIf lowers an if testing regs[c] (a stack, local or constant slot).
func (b *t1builder) buildIf(c int, j t1if) t1op {
	if b.dry {
		return nil
	}
	return func(fr *t1frame) int { return j.to(fr, fr.regs[c] != 0) }
}

// buildBrIf lowers the br_if at pc testing regs[c].
func (b *t1builder) buildBrIf(pc, c int, s t1span) t1op {
	if b.dry {
		return nil
	}
	e := b.branch(pc, s)
	return func(fr *t1frame) int {
		if !fr.charge(e.own) {
			return t1Trapped
		}
		return e.to(fr, fr.regs[c] != 0)
	}
}

// buildSelect lowers a select into slot d.
func (b *t1builder) buildSelect(c, v2, v1, d int, s t1span) t1op {
	if b.dry {
		return nil
	}
	cnt, next := s.cnt, s.next
	return func(fr *t1frame) int {
		if fr.regs[c] != 0 {
			fr.regs[d] = fr.regs[v1]
		} else {
			fr.regs[d] = fr.regs[v2]
		}
		fr.executed += cnt
		return next
	}
}

// buildState lowers the instructions on instance state: global.get and
// memory.size into slot d, global.set from slot v, memory.grow by slot v
// into slot d.
func (b *t1builder) buildState(in *instr, v, d int, s t1span) t1op {
	if b.dry {
		return nil
	}
	cnt, next := s.cnt, s.next
	gi := int(in.a)
	switch in.op {
	case wasm.OpGlobalGet:
		return func(fr *t1frame) int {
			fr.regs[d] = fr.inst.globals[gi].Val
			fr.executed += cnt
			return next
		}
	case wasm.OpGlobalSet:
		return func(fr *t1frame) int {
			fr.inst.globals[gi].Val = fr.regs[v]
			fr.executed += cnt
			return next
		}
	case wasm.OpMemorySize:
		return func(fr *t1frame) int {
			fr.regs[d] = I32(int32(fr.mem.Pages()))
			fr.executed += cnt
			return next
		}
	}
	return func(fr *t1frame) int {
		fr.regs[d] = I32(fr.mem.Grow(AsU32(fr.regs[v])))
		fr.executed += cnt
		return next
	}
}

// buildControl lowers the instructions whose operands the walk has put in
// their slots: calls, br, br_table, return, else, unreachable.
func (b *t1builder) buildControl(pc int, s t1span) t1op {
	if b.dry {
		return nil
	}
	in := &b.c.instrs[pc]
	ht := len(b.stk)
	switch in.op {
	case wasm.OpElse:
		t, cred := b.tgt(int(in.a))
		cnt := s.cnt + cred
		return func(fr *t1frame) int {
			fr.executed += cnt
			return t
		}
	case wasm.OpBr:
		t, cred := b.tgt(int(in.a))
		dst, src, keep := b.moveFor(ht, in.b)
		own := s.own
		return func(fr *t1frame) int {
			if !fr.charge(own) {
				return t1Trapped
			}
			if keep > 0 && dst != src {
				copy(fr.regs[dst:dst+keep], fr.regs[src:src+keep])
			}
			fr.executed += cred
			return t
		}
	case wasm.OpBrTable:
		c := b.nl + ht - 1
		ents := b.c.brTables[in.misc]
		tbl := make([]t1tblEnt, len(ents))
		for i, ent := range ents {
			dst, s0, keep := b.moveFor(ht-1, ent.dropKeep)
			t, cred := b.tgt(int(ent.pc))
			tbl[i] = t1tblEnt{tgt: t, cred: cred, dst: dst, src: s0, keep: keep}
		}
		own := s.own
		return func(fr *t1frame) int {
			if !fr.charge(own) {
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
	case wasm.OpUnreachable:
		own := s.own
		return func(fr *t1frame) int {
			fr.executed += own
			fr.err = newTrap(TrapUnreachable)
			return t1Trapped
		}
	case wasm.OpReturn:
		_, keep := unpackDropKeep(in.b)
		own := s.own
		if keep == 1 {
			r := b.stk[ht-1]
			return func(fr *t1frame) int {
				fr.executed += own
				fr.regs[0] = fr.regs[r]
				return t1Return
			}
		}
		rs := b.nl + ht - keep
		return func(fr *t1frame) int {
			fr.executed += own
			copy(fr.regs[:keep], fr.regs[rs:rs+keep])
			return t1Return
		}
	case wasm.OpCall:
		fi := uint32(in.a)
		ft, _ := b.m.FuncTypeAt(fi)
		aslot := b.nl + ht - len(ft.Params)
		own, crF, next := s.own, s.cnt-s.own, s.next
		self := b.fn
		if lk := int(fi) - b.nImported; lk >= 0 {
			tcFuncs := b.tcFuncs
			return func(fr *t1frame) int {
				if !fr.charge(own) {
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
			if !fr.charge(own) {
				return t1Trapped
			}
			if err := fr.callFunc(self, &fr.inst.funcs[fi], aslot); err != nil {
				fr.err = err
				return t1Trapped
			}
			fr.executed += crF
			return next
		}
	}
	// call_indirect
	ti := uint32(in.a)
	ft := b.m.Types[ti]
	c := b.nl + ht - 1
	aslot := c - len(ft.Params)
	own, crF, next := s.own, s.cnt-s.own, s.next
	self := b.fn
	return func(fr *t1frame) int {
		if !fr.charge(own) {
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
}

// t1tblEnt is one resolved br_table entry in tier-1 form.
type t1tblEnt struct {
	tgt            int
	cred           uint64
	dst, src, keep int
}
