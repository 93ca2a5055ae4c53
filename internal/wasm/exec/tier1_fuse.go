package exec

import (
	"wasmcontainers/internal/wasm"
)

// Tier-1 peephole fusion. The register form makes adjacency fusion far more
// profitable than it is at tier 0: operands have fixed slots, so a pattern
// like "local.get; i32.const+add; local.set; br" collapses into ONE closure
// that reads a local, writes a local, charges fuel, and jumps — four dispatch
// steps become one indirect call. The consumed instructions keep their own
// standalone closures (branches may target them); the fused closure simply
// jumps past them with their instruction counts folded in, so the retired
// count and the block-granularity fuel schedule stay bit-identical to tier 0.
//
// Every operand a fused closure reads is a register slot: a local, a stack
// value, or an integer constant's slot in the frame's constant region
// (kslot; eqz is eq against the zero slot). So each shape below lowers
// through one builder per operator kind (buildBinopSlots, buildCmpIf,
// buildCmpBrIf), whatever its operands are.
//
// The fused shapes, keyed by their first instruction:
//   - [<cmp>][if], [local.get][<cmp>][if], [local.get; local.get; <cmp>][if],
//     [const][<cmp>][if], [local.get][const][<cmp>][if] and [eqz][if]: branch
//     on the compare, every i32/i64/f32/f64 comparison; the if charges no
//     fuel, as at tier 0.
//   - [<cmp>; br_if] (paired at tier 0), [local.get; local.get; <cmp>][br_if],
//     [local.get pair][<cmp>; br_if] and [eqz][br_if]: the loop header, fuel
//     charged at the br_if.
//   - [local.get; local.get; i32.rem_u] tested by == or != and [local.get;
//     local.get; i32.mul] tested by <, <=, > or >=, against a local or a
//     constant ([local.get|const][<cmp>], [eqz] or nothing), then an if: the
//     value is branched on, never stored.
//   - [local.get][const][op], [const][op] and [local.get][op], optionally
//     into a local.set; [local.get; local.get; op][local.set].
//   - [local.get][const+add], optionally into a local.set and then a br;
//     [local.get; local.get; op][local.set][local.get][const+add]
//     [local.set][br], the whole loop epilogue. These two still capture
//     tier 0's add-const immediate.
//   - [local.get][local.set], [local.get][store], [local.get][return].

// adj returns the pc of the next surviving instruction after pc when every
// erased instruction in between is a pure structure marker. A Drop between
// the two changes the operand stack, so it breaks adjacency (-1).
func (b *t1builder) adj(pc int) int {
	instrs := b.cc.instrs
	for q := pc + 1; q < len(instrs); q++ {
		op := instrs[q].op
		if !t1Erased(op) {
			return q
		}
		if op == wasm.OpDrop {
			return -1
		}
	}
	return -1
}

// tryFuse attempts to lower a multi-instruction pattern starting at pc into
// one closure. Returns nil when no pattern applies (the caller falls through
// to single-instruction lowering).
func (b *t1builder) tryFuse(pc int) t1op {
	instrs := b.cc.instrs
	in := &instrs[pc]
	ht := b.heights[pc]
	switch in.op {
	case opLocalGetPair:
		// [local.get i; local.get j][<cmp>; br_if] — the universal hot-loop
		// header, compared straight out of the locals.
		q := b.adj(pc)
		if q >= 0 && instrs[q].op == opCmpBrIf {
			i := int(in.a >> 32)
			j := int(uint32(in.a))
			own := 2 + b.skipCnt[pc+1] + 2
			return b.buildCmpBrIf(wasm.Opcode(instrs[q].misc), q, b.heights[q]-2, i, j, own)
		}
	case opLocalBinop:
		// [local.get i; local.get j; <binop>][local.set k] — three-address
		// form: k = i op j with no stack traffic. When the set is followed by
		// the induction-variable step and the backedge, the whole loop
		// epilogue ("acc op= x; i += k; br loop") collapses into one closure.
		q := b.adj(pc)
		if f := b.buildProdBranch(pc); f != nil {
			// [local.get i; local.get j; <op>] feeding an if.
			return f
		}
		if q >= 0 && instrs[q].op == wasm.OpBrIf && isCmpBinop(wasm.Opcode(in.misc)) {
			// [local.get i; local.get j; <cmp>][br_if] — the other spelling of
			// the hot-loop header (the upstream fuser ate the gets into a
			// localBinop before cmp+br_if could pair up).
			i := int(in.a >> 32)
			j := int(uint32(in.a))
			return b.buildCmpBrIf(wasm.Opcode(in.misc), q, b.heights[pc], i, j, 3+b.skipCnt[pc+1]+1)
		}
		if b.isIf(q) && isCmpBinop(wasm.Opcode(in.misc)) {
			// [local.get i; local.get j; <cmp>][if]: branch on two locals.
			return b.buildCmpIf(wasm.Opcode(in.misc), int(in.a>>32), int(uint32(in.a)),
				b.ifExits(q, 3+b.skipCnt[pc+1]))
		}
		if q >= 0 && instrs[q].op == wasm.OpLocalSet {
			op := wasm.Opcode(in.misc)
			if fn := binFast(op); fn != nil {
				if g := b.adj(q); g >= 0 && instrs[g].op == wasm.OpLocalGet {
					if a := b.adj(g); a >= 0 && (instrs[a].op == opI32AddConst || instrs[a].op == opI64AddConst) {
						if s2 := b.adj(a); s2 >= 0 && instrs[s2].op == wasm.OpLocalSet {
							if br := b.adj(s2); br >= 0 && instrs[br].op == wasm.OpBr {
								if _, keep := unpackDropKeep(instrs[br].b); keep == 0 {
									return b.buildLoopStep(fn, pc, q, g, a, s2, br)
								}
							}
						}
					}
				}
			}
			return b.buildBinopTo(op, pc, int(in.a>>32), int(uint32(in.a)), 0, 3)
		}
	case wasm.OpLocalGet:
		i := int(in.a)
		q := b.adj(pc)
		if q < 0 {
			return nil
		}
		qin := &instrs[q]
		c1 := b.skipCnt[pc+1]
		switch {
		case qin.op == opI32AddConst, qin.op == opI64AddConst:
			// [local.get i][const+add] and optionally [local.set d][br]:
			// the canonical induction-variable step.
			return b.buildLocalAddK(pc, q, i, c1)
		case qin.op == wasm.OpI32Const || qin.op == wasm.OpI64Const:
			// [local.get i][const k][binop] and optionally [local.set d]:
			// local op constant slot, no stack traffic. (const+add was already
			// folded upstream; this catches sub/mul/shift/cmp/div chains.)
			r := b.adj(q)
			if r < 0 || !isFusableBinop(instrs[r].op) {
				return nil
			}
			own := 3 + c1 + b.skipCnt[q+1]
			if r2 := b.adj(r); b.isIf(r2) && isCmpBinop(instrs[r].op) {
				// [local.get i][const k][<cmp>][if]
				return b.buildCmpIf(instrs[r].op, i, b.kslot(qin.a), b.ifExits(r2, own+b.skipCnt[r+1]))
			}
			return b.buildBinopTo(instrs[r].op, r, i, b.kslot(qin.a), b.nl+ht, own)
		case qin.op == wasm.OpReturn:
			// [local.get i][return]: park the local in the result slot and
			// leave the frame directly.
			if _, keep := unpackDropKeep(qin.b); keep == 1 {
				cnt := 2 + c1
				return func(fr *t1frame) int {
					fr.regs[0] = fr.regs[i]
					fr.executed += cnt
					return t1Return
				}
			}
		case isCmpBinop(qin.op) && ht >= 1 && b.isIf(b.adj(q)):
			// [local.get i][<cmp>][if]: top of stack against a local.
			return b.buildCmpIf(qin.op, b.slot(ht, 1), i, b.ifExits(b.adj(q), 2+c1+b.skipCnt[q+1]))
		case isFusableBinop(qin.op) && ht >= 1:
			// [local.get i][binop]: top-of-stack op local, in place.
			x := b.slot(ht, 1)
			return b.buildBinopTo(qin.op, q, x, i, x, 2+c1)
		case qin.op == wasm.OpLocalSet:
			// [local.get i][local.set j]: a register move.
			j := int(instrs[q].a)
			next, crF := b.fall(q)
			cnt := 2 + c1 + crF
			return func(fr *t1frame) int {
				fr.regs[j] = fr.regs[i]
				fr.executed += cnt
				return next
			}
		default:
			// [local.get i][store]: store a local without pushing it.
			if ht >= 1 {
				if nin, _, width, isMem := fixedShape(qin.op); isMem && nin == 2 && width > 0 {
					return b.buildStore(qin, i, b.slot(ht, 1), 2+c1, q)
				}
			}
		}
	case wasm.OpI32Const, wasm.OpI64Const:
		// [const k][binop] and optionally [local.set d]: top of stack op the
		// constant's slot. (const+add pairs were already fused to
		// opI32/I64AddConst upstream, so this catches mul/and/shift/cmp/div.)
		if ht < 1 {
			return nil
		}
		q := b.adj(pc)
		if q < 0 || !isFusableBinop(instrs[q].op) {
			return nil
		}
		x := b.slot(ht, 1)
		own := 2 + b.skipCnt[pc+1]
		if r := b.adj(q); b.isIf(r) && isCmpBinop(instrs[q].op) {
			// [const k][<cmp>][if]
			return b.buildCmpIf(instrs[q].op, x, b.kslot(in.a), b.ifExits(r, own+b.skipCnt[q+1]))
		}
		return b.buildBinopTo(instrs[q].op, q, x, b.kslot(in.a), x, own)
	case wasm.OpI32Eqz, wasm.OpI64Eqz:
		// [eqz][if] and [eqz][br_if] are [eq][if] and [eq][br_if] against
		// the zero slot.
		q := b.adj(pc)
		eq := wasm.OpI32Eq
		if in.op == wasm.OpI64Eqz {
			eq = wasm.OpI64Eq
		}
		own := 1 + b.skipCnt[pc+1]
		switch {
		case b.isIf(q):
			return b.buildCmpIf(eq, b.slot(ht, 1), b.kslot(0), b.ifExits(q, own))
		case q >= 0 && instrs[q].op == wasm.OpBrIf:
			return b.buildCmpBrIf(eq, q, ht-1, b.slot(ht, 1), b.kslot(0), own+1)
		}
	default:
		if q := b.adj(pc); b.isIf(q) && isCmpBinop(in.op) {
			// [<cmp>][if]: two operand slots.
			x := b.slot(ht, 2)
			return b.buildCmpIf(in.op, x, x+1, b.ifExits(q, 1+b.skipCnt[pc+1]))
		}
	}
	return nil
}

// isIf reports whether pc (possibly -1, no successor) is an if.
func (b *t1builder) isIf(pc int) bool {
	return pc >= 0 && b.cc.instrs[pc].op == wasm.OpIf
}

// buildBinopTo lowers op, the binop at pc (or fused into it), reading slots
// x and y into the local of a following local.set, else into slot z. own
// counts the originals retired up to and including the binop.
func (b *t1builder) buildBinopTo(op wasm.Opcode, pc, x, y, z int, own uint64) t1op {
	fallPc, extra := pc, uint64(0)
	if r := b.adj(pc); r >= 0 && b.cc.instrs[r].op == wasm.OpLocalSet {
		z, fallPc, extra = int(b.cc.instrs[r].a), r, b.skipCnt[pc+1]+1
	}
	next, crF := b.fall(fallPc)
	return b.buildBinopSlots(op, x, y, z, own, extra+crF, next)
}

// buildProdBranch fuses the opLocalBinop at pc, when its value only feeds
// an if, with that if: [local.get l|const k][<cmp>], [eqz] or nothing (a
// non-zero test), then the if. The value lives in a Go local: its stack
// slot is dead once the if has consumed it, so it is never written; the
// test's operand is a local or a constant slot (zero for eqz and the
// non-zero test). Two producer and test pairs are fused, those of
// guest-compute's is_prime loop: i32.rem_u tested by == and i32.mul tested
// by <, to which every integer comparison reduces (t1test). Each inlines
// its operator; evaluated through binFast's indirect call, the fused closure
// measured no faster than the two closures it replaces (EXPERIMENTS.md).
// Nil for any other shape.
func (b *t1builder) buildProdBranch(pc int) t1op {
	instrs := b.cc.instrs
	in := &instrs[pc]
	op, x, y := wasm.Opcode(in.misc), int(in.a>>32), int(uint32(in.a))
	c := b.adj(pc)
	if op != wasm.OpI32RemU && op != wasm.OpI32Mul || c < 0 {
		return nil
	}
	cnt := 3 + b.skipCnt[pc+1]
	cmp, t, br := wasm.OpI32Ne, t1test{w: -1}, c
	var k Value
	switch ci := &instrs[c]; ci.op {
	case wasm.OpLocalGet, wasm.OpI32Const:
		if br = b.adj(c); br < 0 || !isCmpBinop(instrs[br].op) {
			return nil
		}
		if ci.op == wasm.OpLocalGet {
			t.w = int(ci.a)
		} else {
			k = ci.a
		}
		cmp = instrs[br].op
		cnt += 2 + b.skipCnt[c+1] + b.skipCnt[br+1]
		br = b.adj(br)
	case wasm.OpI32Eqz:
		cmp = wasm.OpI32Eq
		cnt += 1 + b.skipCnt[c+1]
		br = b.adj(c)
	}
	if !b.isIf(br) || !t.reduce(cmp) || t.lt != (op == wasm.OpI32Mul) {
		return nil
	}
	if t.w < 0 {
		t.w = b.kslot(k)
	}
	// An if charges no fuel, as at tier 0; a zero divisor traps after the
	// producer's three instructions, as the standalone rem_u does.
	j := b.ifExits(br, cnt)
	m, w, neg := t.m, t.w, t.neg
	if op == wasm.OpI32RemU {
		return func(fr *t1frame) int {
			d := AsU32(fr.regs[y])
			if d == 0 {
				return fr.trapAfter(3, TrapIntegerDivideByZero)
			}
			return j.to(fr, (AsU32(fr.regs[x])%d == AsU32(fr.regs[w])) != neg)
		}
	}
	return func(fr *t1frame) int {
		v := I32(AsI32(fr.regs[x]) * AsI32(fr.regs[y]))
		return j.to(fr, (v<<32^m < fr.regs[w]<<32^m) != neg)
	}
}

// buildLocalAddK lowers [local.get src][opI32/I64AddConst k] plus an optional
// [local.set dst] and, after a set, an optional value-free [br]: the loop
// counter update and backedge in one closure. pc is the local.get, q the
// fused add-const.
func (b *t1builder) buildLocalAddK(pc, q, src int, c1 uint64) t1op {
	instrs := b.cc.instrs
	qin := &instrs[q]
	is64 := qin.op == opI64AddConst
	k32 := int32(uint32(qin.a))
	k64 := qin.a
	ht := b.heights[pc]
	dst := b.nl + ht // pushed, unless a set redirects it
	cnt := 1 + c1 + 2
	fallPc := q
	if r := b.adj(q); r >= 0 && instrs[r].op == wasm.OpLocalSet {
		dst = int(instrs[r].a)
		cnt += b.skipCnt[q+1] + 1
		fallPc = r
		if r2 := b.adj(r); r2 >= 0 && instrs[r2].op == wasm.OpBr {
			if _, keep := unpackDropKeep(instrs[r2].b); keep == 0 {
				// Fold the backedge in: count through the br, charge fuel at
				// it (the tier-0 charge point), then jump.
				own := cnt + b.skipCnt[r+1] + 1
				cred := b.skipCnt[instrs[r2].a]
				t := b.tgt(int(instrs[r2].a))
				if is64 {
					return func(fr *t1frame) int {
						fr.regs[dst] = fr.regs[src] + k64
						fr.executed += own
						if !fr.chargeFuel() {
							fr.err = newTrap(TrapOutOfFuel)
							return t1Trapped
						}
						fr.executed += cred
						return t
					}
				}
				return func(fr *t1frame) int {
					fr.regs[dst] = I32(AsI32(fr.regs[src]) + k32)
					fr.executed += own
					if !fr.chargeFuel() {
						fr.err = newTrap(TrapOutOfFuel)
						return t1Trapped
					}
					fr.executed += cred
					return t
				}
			}
		}
	}
	next, crF := b.fall(fallPc)
	cnt += crF
	if is64 {
		return func(fr *t1frame) int {
			fr.regs[dst] = fr.regs[src] + k64
			fr.executed += cnt
			return next
		}
	}
	return func(fr *t1frame) int {
		fr.regs[dst] = I32(AsI32(fr.regs[src]) + k32)
		fr.executed += cnt
		return next
	}
}

// binFast returns a non-trapping evaluator for the handful of binops worth
// folding into multi-op superinstructions, nil for anything that can trap or
// is too rare to matter.
func binFast(op wasm.Opcode) func(Value, Value) Value {
	switch op {
	case wasm.OpI32Add:
		return func(a, b Value) Value { return I32(AsI32(a) + AsI32(b)) }
	case wasm.OpI32Sub:
		return func(a, b Value) Value { return I32(AsI32(a) - AsI32(b)) }
	case wasm.OpI32Mul:
		return func(a, b Value) Value { return I32(AsI32(a) * AsI32(b)) }
	case wasm.OpI32And:
		return func(a, b Value) Value { return (a & b) & 0xffffffff }
	case wasm.OpI32Or:
		return func(a, b Value) Value { return (a | b) & 0xffffffff }
	case wasm.OpI32Xor:
		return func(a, b Value) Value { return (a ^ b) & 0xffffffff }
	case wasm.OpI64Add:
		return func(a, b Value) Value { return a + b }
	case wasm.OpI64Sub:
		return func(a, b Value) Value { return a - b }
	case wasm.OpI64Mul:
		return func(a, b Value) Value { return a * b }
	case wasm.OpI64And:
		return func(a, b Value) Value { return a & b }
	case wasm.OpI64Or:
		return func(a, b Value) Value { return a | b }
	case wasm.OpI64Xor:
		return func(a, b Value) Value { return a ^ b }
	}
	return nil
}

// buildLoopStep lowers the full counted-loop epilogue
// [localBinop i j -> set k][get src; addconst][set dst][br] into one closure:
// update the accumulator, step the induction variable, charge fuel at the
// backedge (tier 0's charge point), jump. pc..br are the chain's pcs.
func (b *t1builder) buildLoopStep(fn func(Value, Value) Value, pc, q, g, a, s2, br int) t1op {
	instrs := b.cc.instrs
	i := int(instrs[pc].a >> 32)
	j := int(uint32(instrs[pc].a))
	k := int(instrs[q].a)
	src := int(instrs[g].a)
	dst := int(instrs[s2].a)
	is64 := instrs[a].op == opI64AddConst
	k64 := instrs[a].a
	k32 := int32(uint32(instrs[a].a))
	own := 3 + b.skipCnt[pc+1] + 1 + b.skipCnt[q+1] + 1 + b.skipCnt[g+1] +
		2 + b.skipCnt[a+1] + 1 + b.skipCnt[s2+1] + 1
	cred := b.skipCnt[int(instrs[br].a)]
	t := b.tgt(int(instrs[br].a))
	if is64 {
		return func(fr *t1frame) int {
			fr.regs[k] = fn(fr.regs[i], fr.regs[j])
			fr.regs[dst] = fr.regs[src] + k64
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			fr.executed += cred
			return t
		}
	}
	return func(fr *t1frame) int {
		fr.regs[k] = fn(fr.regs[i], fr.regs[j])
		fr.regs[dst] = I32(AsI32(fr.regs[src]) + k32)
		fr.executed += own
		if !fr.chargeFuel() {
			fr.err = newTrap(TrapOutOfFuel)
			return t1Trapped
		}
		fr.executed += cred
		return t
	}
}
