package exec

import (
	"math"

	"wasmcontainers/internal/wasm"
)

// Tier-1 operand folding. The walk below lowers the compiler's plain
// instruction stream with an operand stack whose entries are register
// slots: the stack slot a closure computed the value into, or — folded —
// the local a local.get read, or a constant's slot in the frame's constant
// region (kslot). A folded local.get or const has no closure of its own:
// whatever consumes the entry reads the local or the constant in place.
//
// So every instruction reads its operands wherever they are, and a
// consumer's closure is chosen by one table, keyed on its operator class
// and on the sink that follows it, never on how its operands were spelled:
//
//	class                 sink                          builder
//	binop, compare, eqz   push, local.set/tee, return   buildBinopSlots
//	compare, eqz          if                            buildCmpIf
//	compare, eqz          br_if                         buildCmpBrIf
//	i32.rem_u, i32.mul    a test, then if               buildProdBranch
//	i32/i64.add           local.set, br                 buildStep
//	i32/i64.add           local.set, the above          buildStep
//	anything else         push                          one closure each
//
// The sink is the next instruction, unless a branch lands on it; a return
// may also sit past structure markers (the result is parked and the frame
// left, and the return keeps its own closure for any branch to the
// markers). eqz is eq against the zero constant's slot. The last two rows
// are a loop's step: a counter's add and the backedge, after an
// accumulator's add or not.
//
// Each builder inlines an operator only where a kernel of the dispatch
// ledger (TestTier1DispatchLedger) runs it; `make tier1-shapes` prints the
// calls each closure body takes per kernel. Every other operator — the long
// tail of binops and unops, the float, ne and le compares an if tests, the
// 16-bit and sign-extending loads, the 16-bit stores, the saturating
// truncations — is one closure that calls the evaluator tier 0 runs
// (binaryOp, unaryOp, Memory.load with extendLoad, Memory.storeAt,
// truncSat), so its semantics live in one place. Inlining one more costs
// nothing in the ledger's closure counts or Tier1Code.Bytes: it replaces
// that closure in place.
//
// A folded entry is put in its slot (flush, one closure for all the entries
// that move) before a branch target, a structure marker (block, loop, if,
// else, end), a call or a branch, and before a local.set or local.tee of
// the local it reads. So control merges only where every value is in its
// slot, and a folded local is never read after it was overwritten.
//
// Every closure retires a contiguous run of originals: from the first one
// no earlier closure retired, folded producers included, through its own
// last instruction, and on over the markers and drops that follow it
// (span). A branch enters the first closure placed after its target and
// retires the markers in between itself (land, cred). Fuel is charged at
// tier 0's charge points, and a trap retires exactly what tier 0's did, so
// the retired count and the fuel schedule are bit-identical to tier 0.

// flush puts the folded entries in their slots — those reading local x, or
// all of them when x < 0 — with one closure that retires every original
// before pc, and the markers and drops from pc on. At a cut (a branch
// target) the closure is placed even when nothing moves, so that a branch
// to pc enters after it.
func (b *t1builder) flush(pc, x int, cut bool) {
	b.mv = b.mv[:0]
	for i, r := range b.stk {
		if s := b.nl + i; r != s && (x < 0 || r == x) {
			b.mv = append(b.mv, t1move{s, r})
			b.stk[i] = s
		}
	}
	if len(b.mv) == 0 && (!cut || b.cnt >= pc) {
		return
	}
	q := b.skip(pc)
	own := uint64(max(q-b.cnt, 0))
	b.cnt = max(b.cnt, q)
	b.put(b.buildMoves(b.mv, t1span{own: own, cnt: own, next: len(b.ops) + 1}))
}

// sinkAt reports the op at pc when it can be fused into the closure of the
// instruction before it: reachable, and no branch lands on it. Nop if not.
func (b *t1builder) sinkAt(pc int) wasm.Opcode {
	if pc >= len(b.c.instrs) || b.c.isTarget(pc) || b.c.heights[pc] < 0 {
		return wasm.OpNop
	}
	return b.c.instrs[pc].op
}

// binary lowers op at pc, applied to slots x and y, with its sink: the
// consumer table's first five rows. Returns the last pc it consumed.
func (b *t1builder) binary(pc int, op wasm.Opcode, x, y int) int {
	q := pc + 1
	sink := b.sinkAt(q)
	isCmp := isCmpBinop(op)
	switch {
	case op == wasm.OpI32RemU || op == wasm.OpI32Mul:
		if last := b.buildProdBranch(pc, op, x, y); last > 0 {
			return last
		}
	case isCmp && sink == wasm.OpIf:
		b.flush(pc, -1, false)
		b.put(b.buildCmpIf(op, x, y, b.ifExits(q, b.span(q, q, true))))
		return q
	case isCmp && sink == wasm.OpBrIf:
		b.flush(pc, -1, false)
		b.put(b.buildCmpBrIf(op, q, x, y, b.span(q, q, true)))
		return q
	}
	switch sink {
	case wasm.OpLocalSet, wasm.OpLocalTee:
		d, g := int(b.c.instrs[q].a), q+1
		if m := addMask(op); m != 0 && sink == wasm.OpLocalSet {
			instrs, add := b.c.instrs, t1add{x, y, d, m}
			switch k := b.sinkAt(g + 1); {
			case b.plainBr(g):
				// [add][local.set][br]: a counter's step.
				b.flush(pc, -1, false)
				b.put(b.buildStep(t1add{}, add, g, b.span(g, g, false)))
				return g
			case b.sinkAt(g) == wasm.OpLocalGet && (k == wasm.OpI32Const || k == wasm.OpI64Const) &&
				addMask(b.sinkAt(g+2)) != 0 && b.sinkAt(g+3) == wasm.OpLocalSet && b.plainBr(g+4):
				// [add][local.set][local.get][const][add][local.set][br]: an
				// accumulator's step, then the counter's.
				b.flush(pc, -1, false)
				step := t1add{int(instrs[g].a), b.kslot(instrs[g+1].a), int(instrs[g+3].a), addMask(instrs[g+2].op)}
				b.put(b.buildStep(add, step, g+4, b.span(g+4, g+4, false)))
				return g + 4
			}
		}
		b.flush(pc, d, false)
		b.put(b.buildBinopSlots(op, x, y, d, b.span(pc, q, true)))
		if sink == wasm.OpLocalTee {
			b.push(d)
		}
		return q
	}
	// A return past structure markers: park the result in slot 0 and
	// leave. The walk goes on at q, so a branch to a marker still finds the
	// return's own closure.
	r := q
	for r < len(b.c.instrs) && t1Erased(b.c.instrs[r].op) && b.c.instrs[r].op != wasm.OpDrop {
		r++
	}
	if r < len(b.c.instrs) && b.c.instrs[r].op == wasm.OpReturn && uint32(b.c.instrs[r].b) == 1 {
		s := b.span(pc, r, false)
		s.next = t1Return
		b.put(b.buildBinopSlots(op, x, y, 0, s))
		return pc
	}
	d := b.top()
	b.push(d)
	b.put(b.buildBinopSlots(op, x, y, d, b.span(pc, pc, true)))
	return pc
}

// buildProdBranch fuses i32.rem_u or i32.mul at pc, reading slots x and y,
// with a test that only feeds an if: [local.get l|i32.const k][<cmp>],
// [eqz] or nothing (a non-zero test), then the if. The value lives in a Go
// local and is never written. The two pairs are those of guest-compute's
// is_prime loop: rem_u tested by == and mul tested by <, to which every
// integer comparison reduces (t1test). Each inlines its operator; evaluated
// through an indirect call, the fused closure measured no faster than the
// two closures it replaces (EXPERIMENTS.md). Returns the if's pc, or 0 for
// any other shape.
func (b *t1builder) buildProdBranch(pc int, op wasm.Opcode, x, y int) int {
	instrs := b.c.instrs
	cmp, t, br := wasm.OpI32Ne, t1test{w: -1}, pc+1
	k := Value(0)
	switch b.sinkAt(br) {
	case wasm.OpLocalGet, wasm.OpI32Const:
		c := br
		if br++; !isCmpBinop(b.sinkAt(br)) {
			return 0
		}
		if instrs[c].op == wasm.OpLocalGet {
			t.w = int(instrs[c].a)
		} else {
			k = instrs[c].a
		}
		cmp = instrs[br].op
		br++
	case wasm.OpI32Eqz:
		cmp = wasm.OpI32Eq
		br++
	}
	if b.sinkAt(br) != wasm.OpIf || !t.reduce(cmp) || t.lt != (op == wasm.OpI32Mul) {
		return 0
	}
	if t.w < 0 {
		t.w = b.kslot(k)
	}
	b.flush(pc, -1, false)
	// An if charges no fuel, as at tier 0; a zero divisor traps after the
	// originals through the rem_u, as the standalone rem_u does.
	trap := uint64(pc + 1 - b.cnt)
	j := b.ifExits(br, b.span(br, br, true))
	if b.dry {
		b.put(nil)
		return br
	}
	m, w, neg := t.m, t.w, t.neg
	if op == wasm.OpI32RemU {
		b.put(func(fr *t1frame) int {
			d := AsU32(fr.regs[y])
			if d == 0 {
				return fr.trapAfter(trap, TrapIntegerDivideByZero)
			}
			return j.to(fr, (AsU32(fr.regs[x])%d == AsU32(fr.regs[w])) != neg)
		})
		return br
	}
	b.put(func(fr *t1frame) int {
		v := I32(AsI32(fr.regs[x]) * AsI32(fr.regs[y]))
		return j.to(fr, (v<<32^m < fr.regs[w]<<32^m) != neg)
	})
	return br
}

// addMask is the result mask of i32.add and i64.add, 0 for any other op:
// on registers, both are (a + b) & mask.
func addMask(op wasm.Opcode) uint64 {
	switch op {
	case wasm.OpI32Add:
		return math.MaxUint32
	case wasm.OpI64Add:
		return math.MaxUint64
	}
	return 0
}

// plainBr reports a br at pc that can be fused and carries no value.
func (b *t1builder) plainBr(pc int) bool {
	return b.sinkAt(pc) == wasm.OpBr && uint32(b.c.instrs[pc].b) == 0
}

// t1add is an add into local d: regs[d] = (regs[x] + regs[y]) & m.
type t1add struct {
	x, y, d int
	m       uint64
}

// buildStep lowers a loop's step into one closure: the accumulator's add
// acc (none when acc.m is 0), the counter's add step, the fuel charge at
// the br (tier 0's charge point) and the jump. A constant step is an
// immediate: read from its slot, count_primes ran about 10 % slower
// (EXPERIMENTS.md). The accumulator row always steps by a constant.
func (b *t1builder) buildStep(acc, step t1add, br int, s t1span) t1op {
	if b.dry {
		return nil
	}
	t, cred := b.tgt(int(b.c.instrs[br].a))
	own := s.own
	d, x, y, m := step.d, step.x, step.y, step.m
	if y < b.kbase {
		return func(fr *t1frame) int {
			fr.regs[d] = (fr.regs[x] + fr.regs[y]) & m
			if !fr.charge(own) {
				return t1Trapped
			}
			fr.executed += cred
			return t
		}
	}
	k := b.fn.consts[y-b.kbase]
	if acc.m == 0 {
		return func(fr *t1frame) int {
			fr.regs[d] = (fr.regs[x] + k) & m
			if !fr.charge(own) {
				return t1Trapped
			}
			fr.executed += cred
			return t
		}
	}
	return func(fr *t1frame) int {
		fr.regs[acc.d] = (fr.regs[acc.x] + fr.regs[acc.y]) & acc.m
		fr.regs[d] = (fr.regs[x] + k) & m
		if !fr.charge(own) {
			return t1Trapped
		}
		fr.executed += cred
		return t
	}
}
