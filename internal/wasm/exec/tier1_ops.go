package exec

import (
	"encoding/binary"
	"math"

	"wasmcontainers/internal/wasm"
)

// buildBinopSlots lowers a two-operand op reading slots x and y (stack,
// local or constant slots) and writing slot z: the pushed value's slot, a
// local.set's local, or slot 0 before a return. The ops some ledger kernel
// runs get specialized closures, i32.rem_u among them, which retires s.own
// before it traps, like the tier-0 loop. The long tail, comparisons to a
// value and the other div/rem included, goes through tier 0's binaryOp,
// which still beats tier 0 by skipping the outer dispatch.
func (b *t1builder) buildBinopSlots(op wasm.Opcode, x, y, z int, s t1span) t1op {
	if b.dry {
		return nil
	}
	own, cnt, next := s.own, s.cnt, s.next
	switch op {
	case wasm.OpI32Add:
		return func(fr *t1frame) int {
			fr.regs[z] = I32(AsI32(fr.regs[x]) + AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Sub:
		return func(fr *t1frame) int {
			fr.regs[z] = I32(AsI32(fr.regs[x]) - AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Mul:
		return func(fr *t1frame) int {
			fr.regs[z] = I32(AsI32(fr.regs[x]) * AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32And:
		return func(fr *t1frame) int {
			fr.regs[z] = (fr.regs[x] & fr.regs[y]) & math.MaxUint32
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Xor:
		return func(fr *t1frame) int {
			fr.regs[z] = (fr.regs[x] ^ fr.regs[y]) & math.MaxUint32
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Shl:
		return func(fr *t1frame) int {
			fr.regs[z] = I32(AsI32(fr.regs[x]) << (AsU32(fr.regs[y]) & 31))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32ShrU:
		return func(fr *t1frame) int {
			fr.regs[z] = uint64(AsU32(fr.regs[x]) >> (AsU32(fr.regs[y]) & 31))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Add:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] + fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Mul:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] * fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64ShrU:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] >> (fr.regs[y] & 63)
			fr.executed += cnt
			return next
		}
	case wasm.OpF64Add:
		return func(fr *t1frame) int {
			fr.regs[z] = F64(AsF64(fr.regs[x]) + AsF64(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpF64Sub:
		return func(fr *t1frame) int {
			fr.regs[z] = F64(AsF64(fr.regs[x]) - AsF64(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpF64Mul:
		return func(fr *t1frame) int {
			fr.regs[z] = F64(AsF64(fr.regs[x]) * AsF64(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpF64Div:
		return func(fr *t1frame) int {
			fr.regs[z] = F64(AsF64(fr.regs[x]) / AsF64(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32RemU:
		return func(fr *t1frame) int {
			r := AsU32(fr.regs[y])
			if r == 0 {
				return fr.trapAfter(own, TrapIntegerDivideByZero)
			}
			fr.regs[z] = uint64(AsU32(fr.regs[x]) % r)
			fr.executed += cnt
			return next
		}
	}
	return func(fr *t1frame) int {
		fr.executed += own
		v, err := binaryOp(op, fr.regs[x], fr.regs[y])
		if err != nil {
			fr.err = err
			return t1Trapped
		}
		fr.regs[z] = v
		fr.executed += cnt - own
		return next
	}
}

// cmpKind is the closure shape an integer comparison lowers to: the
// operands, order-mapped (see cmpShape), compare as uint64.
type cmpKind uint8

const (
	cmpEq cmpKind = iota
	cmpNe
	cmpLt
	cmpLe
	cmpNone // not an integer comparison
)

// cmpRow is one comparison reduced to a kind, applied with the operands
// swapped when it is a gt or ge (a > b is b < a), and the bias an operand is
// XORed with (the sign bit for a signed compare, so unsigned order is signed
// order).
type cmpRow struct {
	k    cmpKind
	swap bool
	bias uint64
}

// intCmps lists the integer comparisons in opcode order from eq.
var intCmps = [10]cmpRow{
	{cmpEq, false, 0}, {cmpNe, false, 0},
	{cmpLt, false, 1 << 63}, {cmpLt, false, 0}, {cmpLt, true, 1 << 63}, {cmpLt, true, 0},
	{cmpLe, false, 1 << 63}, {cmpLe, false, 0}, {cmpLe, true, 1 << 63}, {cmpLe, true, 0},
}

// cmpShape reduces an integer comparison (cmpNone for any other op, float
// comparisons included): the one table every tier-1 comparison lowering — to
// an if, a br_if or a fused test — reads. An operand v compares as
// v<<sh ^ bias as a uint64; an i32 shifts into the high word, which drops the
// register bits above it as AsU32 does. sh is 0 or 32, and the closures
// shift by sh&63: a captured count the compiler cannot bound otherwise costs
// each shift an over-width guard.
func cmpShape(op wasm.Opcode) (k cmpKind, swap bool, sh, bias uint64) {
	var r cmpRow
	switch {
	case op >= wasm.OpI32Eq && op <= wasm.OpI32GeU:
		r, sh = intCmps[op-wasm.OpI32Eq], 32
	case op >= wasm.OpI64Eq && op <= wasm.OpI64GeU:
		r = intCmps[op-wasm.OpI64Eq]
	default:
		return cmpNone, false, 0, 0
	}
	return r.k, r.swap, sh, r.bias
}

// t1test is a fused branch's test of a produced i32 value v against
// regs[w]: v<<32 ^ m against regs[w]<<32 ^ m, by < (lt) or ==, negated when
// neg.
type t1test struct {
	w       int
	m       uint64
	lt, neg bool
}

// reduce sets t to the i32 comparison cmp with v as its left operand; false
// for any other comparison. Complementing both sides reverses the unsigned
// order, so a > b is ^a < ^b, a <= b is !(^a < ^b) and a >= b is !(a < b):
// no comparison keeps a swap.
func (t *t1test) reduce(cmp wasm.Opcode) bool {
	k, swap, sh, bias := cmpShape(cmp)
	if k == cmpNone || sh != 32 {
		return false
	}
	t.m, t.lt, t.neg = bias, k >= cmpLt, k == cmpNe || k == cmpLe
	if swap != (k == cmpLe) {
		t.m = ^t.m
	}
	return true
}

// t1if is a fused conditional's two exits: into the then-arm at nT, or to
// the if's false target (past the else, or the end) at nF. cT and cF credit
// everything retired through the if on each path; an if is not a fuel
// charge point, so neither exit charges.
type t1if struct {
	nT, nF int
	cT, cF uint64
}

// ifExits resolves the exits of the if at pc, whose closure retires s: into
// the then-arm as it falls through, or to the if's false target.
func (b *t1builder) ifExits(pc int, s t1span) t1if {
	nF, cF := b.tgt(int(b.c.instrs[pc].a))
	return t1if{nT: s.next, nF: nF, cT: s.cnt, cF: s.own + cF}
}

// to credits and returns the exit c selects.
func (j t1if) to(fr *t1frame, c bool) int {
	if c {
		fr.executed += j.cT
		return j.nT
	}
	fr.executed += j.cF
	return j.nF
}

// buildCmpIf lowers "<comparison>; if" comparing regs[x] with regs[y]
// (operand, local or constant slots) into one closure that branches on the
// compare. Integer eq, lt and gt are inline; any other comparison evaluates
// through binaryOp (it cannot trap).
func (b *t1builder) buildCmpIf(op wasm.Opcode, x, y int, j t1if) t1op {
	if b.dry {
		return nil
	}
	k, swap, sh, bias := cmpShape(op)
	opx, opy := x, y // the operands in op's order, for binaryOp
	if swap {
		x, y = y, x
	}
	switch k {
	case cmpEq:
		return func(fr *t1frame) int { return j.to(fr, fr.regs[x]<<(sh&63) == fr.regs[y]<<(sh&63)) }
	case cmpLt:
		return func(fr *t1frame) int { return j.to(fr, fr.regs[x]<<(sh&63)^bias < fr.regs[y]<<(sh&63)^bias) }
	}
	return func(fr *t1frame) int {
		v, _ := binaryOp(op, fr.regs[opx], fr.regs[opy])
		return j.to(fr, v != 0)
	}
}

// t1branch is a br_if's two exits: taken (kept values moved, then t) or not
// (next), each with the originals it retires past the own retired before
// the fuel charge.
type t1branch struct {
	t, next        int
	own, crT, crF  uint64
	dst, src, keep int
}

// branch resolves the exits of the br_if at pc, whose closure retires s.
func (b *t1builder) branch(pc int, s t1span) t1branch {
	in := &b.c.instrs[pc]
	t, crT := b.tgt(int(in.a))
	dst, src, keep := b.moveFor(len(b.stk), in.b)
	return t1branch{t: t, next: s.next, own: s.own, crT: crT, crF: s.cnt - s.own, dst: dst, src: src, keep: keep}
}

// to takes the exit c selects, once the closure has charged e.own at the
// br_if, as tier 0 does.
func (e t1branch) to(fr *t1frame, c bool) int {
	if !c {
		fr.executed += e.crF
		return e.next
	}
	if e.keep > 0 && e.dst != e.src {
		copy(fr.regs[e.dst:e.dst+e.keep], fr.regs[e.src:e.src+e.keep])
	}
	fr.executed += e.crT
	return e.t
}

// buildCmpBrIf lowers the comparison op and the br_if at pc into one closure
// comparing regs[x] and regs[y]: operand, local or constant slots. Integer
// eq, lt, gt, le and ge are inline; any other comparison evaluates through
// binaryOp (it cannot trap).
func (b *t1builder) buildCmpBrIf(op wasm.Opcode, pc, x, y int, s t1span) t1op {
	if b.dry {
		return nil
	}
	e := b.branch(pc, s)
	k, swap, sh, bias := cmpShape(op)
	opx, opy := x, y // the operands in op's order, for binaryOp
	if swap {
		x, y = y, x
	}
	switch k {
	case cmpEq:
		return func(fr *t1frame) int {
			if !fr.charge(e.own) {
				return t1Trapped
			}
			return e.to(fr, fr.regs[x]<<(sh&63) == fr.regs[y]<<(sh&63))
		}
	case cmpLt:
		return func(fr *t1frame) int {
			if !fr.charge(e.own) {
				return t1Trapped
			}
			return e.to(fr, fr.regs[x]<<(sh&63)^bias < fr.regs[y]<<(sh&63)^bias)
		}
	case cmpLe:
		return func(fr *t1frame) int {
			if !fr.charge(e.own) {
				return t1Trapped
			}
			return e.to(fr, fr.regs[x]<<(sh&63)^bias <= fr.regs[y]<<(sh&63)^bias)
		}
	}
	return func(fr *t1frame) int {
		if !fr.charge(e.own) {
			return t1Trapped
		}
		v, _ := binaryOp(op, fr.regs[opx], fr.regs[opy])
		return e.to(fr, v != 0)
	}
}

// buildUnary lowers a one-operand fixed-shape op (eqz aside) reading slot
// c and writing slot d: i32.wrap_i64 inline, the rest through tier 0's
// unaryOp.
func (b *t1builder) buildUnary(op wasm.Opcode, c, d int, s t1span) t1op {
	if b.dry {
		return nil
	}
	own, cnt, next := s.own, s.cnt, s.next
	if op == wasm.OpI32WrapI64 {
		return func(fr *t1frame) int {
			fr.regs[d] = I32(int32(fr.regs[c]))
			fr.executed += cnt
			return next
		}
	}
	// unaryOp covers the trapping float->int truncations.
	return func(fr *t1frame) int {
		fr.executed += own
		v, err, ok := unaryOp(op, fr.regs[c])
		if !ok {
			fr.err = newTrap(TrapUnreachable)
			return t1Trapped
		}
		if err != nil {
			fr.err = err
			return t1Trapped
		}
		fr.regs[d] = v
		fr.executed += cnt - own
		return next
	}
}

// buildLoad lowers a memory load: address in slot c, value into slot d.
// The 32- and 64-bit loads and the zero-extending byte loads are inline, and
// their bounds check replicates Memory.load exactly: an access past data (an
// aliased memory whose image does not store those bytes, or a genuine
// out-of-bounds one) goes through materialise before it loads or traps. The
// 16-bit and sign-extending loads go through Memory.load and extendLoad,
// as at tier 0.
func (b *t1builder) buildLoad(in *instr, c, d int, s t1span) t1op {
	if b.dry {
		return nil
	}
	off := in.a
	own, cnt, next := s.own, s.cnt, s.next
	switch in.op {
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+4 > uint64(len(m.data)) && !m.materialise(ea+4) {
				return fr.trapAfter(own, TrapMemoryOutOfBounds)
			}
			fr.regs[d] = uint64(binary.LittleEndian.Uint32(m.data[ea:]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Load, wasm.OpF64Load:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+8 > uint64(len(m.data)) && !m.materialise(ea+8) {
				return fr.trapAfter(own, TrapMemoryOutOfBounds)
			}
			fr.regs[d] = binary.LittleEndian.Uint64(m.data[ea:])
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+1 > uint64(len(m.data)) && !m.materialise(ea+1) {
				return fr.trapAfter(own, TrapMemoryOutOfBounds)
			}
			fr.regs[d] = uint64(m.data[ea])
			fr.executed += cnt
			return next
		}
	}
	op, offset, width := in.op, uint32(off), int(in.misc)
	return func(fr *t1frame) int {
		raw, ok := fr.mem.load(AsU32(fr.regs[c]), offset, width)
		if !ok {
			return fr.trapAfter(own, TrapMemoryOutOfBounds)
		}
		fr.regs[d] = extendLoad(op, raw)
		fr.executed += cnt
		return next
	}
}

// buildStore lowers a memory store: value in regs[v], address in regs[c]
// (stack, local or constant slots). The 8-, 32- and 64-bit stores are
// inline: their bounds check is against the memory's writable slice and the
// dirty-page marking (first page plus the rare straddle) is byte-for-byte
// the Memory.storeAt hot path. The 16-bit stores go through storeAt whole.
func (b *t1builder) buildStore(in *instr, v, c int, s t1span) t1op {
	if b.dry {
		return nil
	}
	off := in.a
	width := uint64(in.misc)
	own, cnt, next := s.own, s.cnt, s.next
	// slow takes every store that fails the inline check against wr: the
	// first write to an aliased memory (storeAt materialises and stores) or a
	// genuine out-of-bounds access.
	slow := func(fr *t1frame, ea, val uint64) int {
		if !fr.mem.storeAt(ea, int(width), val) {
			fr.executed += own
			fr.err = newTrap(TrapMemoryOutOfBounds)
			return t1Trapped
		}
		fr.executed += cnt
		return next
	}
	switch width {
	case 1:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+1 > uint64(len(m.wr)) {
				return slow(fr, ea, fr.regs[v])
			}
			m.wr[ea] = byte(fr.regs[v])
			p := ea >> 16
			m.dirty[p>>6] |= 1 << (p & 63)
			fr.executed += cnt
			return next
		}
	case 4:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+4 > uint64(len(m.wr)) {
				return slow(fr, ea, fr.regs[v])
			}
			binary.LittleEndian.PutUint32(m.wr[ea:], uint32(fr.regs[v]))
			p := ea >> 16
			m.dirty[p>>6] |= 1 << (p & 63)
			if last := (ea + 3) >> 16; last != p {
				m.dirty[last>>6] |= 1 << (last & 63)
			}
			fr.executed += cnt
			return next
		}
	case 8:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+8 > uint64(len(m.wr)) {
				return slow(fr, ea, fr.regs[v])
			}
			binary.LittleEndian.PutUint64(m.wr[ea:], fr.regs[v])
			p := ea >> 16
			m.dirty[p>>6] |= 1 << (p & 63)
			if last := (ea + 7) >> 16; last != p {
				m.dirty[last>>6] |= 1 << (last & 63)
			}
			fr.executed += cnt
			return next
		}
	}
	return func(fr *t1frame) int { return slow(fr, uint64(AsU32(fr.regs[c]))+off, fr.regs[v]) }
}

// buildBulk lowers memory.copy and memory.fill: n in slot c1, the source
// address or the fill byte in c2, the destination in c3.
func (b *t1builder) buildBulk(in *instr, c1, c2, c3 int, s t1span) t1op {
	if b.dry {
		return nil
	}
	own, crF, next := s.own, s.cnt-s.own, s.next
	if in.misc == wasm.MiscMemoryCopy {
		return func(fr *t1frame) int {
			fr.executed += own
			nn := AsU32(fr.regs[c1])
			src := AsU32(fr.regs[c2])
			dst := AsU32(fr.regs[c3])
			if !fr.mem.copyWithin(dst, src, nn) {
				fr.err = newTrap(TrapMemoryOutOfBounds)
				return t1Trapped
			}
			fr.executed += crF
			return next
		}
	}
	return func(fr *t1frame) int {
		fr.executed += own
		nn := AsU32(fr.regs[c1])
		val := byte(fr.regs[c2])
		dst := AsU32(fr.regs[c3])
		if !fr.mem.fill(dst, val, nn) {
			fr.err = newTrap(TrapMemoryOutOfBounds)
			return t1Trapped
		}
		fr.executed += crF
		return next
	}
}

// buildTruncSat lowers a saturating truncation, slot c into slot d,
// through tier 0's truncSat; it cannot trap.
func (b *t1builder) buildTruncSat(in *instr, c, d int, s t1span) t1op {
	if b.dry {
		return nil
	}
	misc, cnt, next := in.misc, s.cnt, s.next
	return func(fr *t1frame) int {
		fr.regs[d] = truncSat(misc, fr.regs[c])
		fr.executed += cnt
		return next
	}
}
