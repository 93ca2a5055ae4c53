package exec

import (
	"encoding/binary"
	"math"

	"wasmcontainers/internal/wasm"
)

// buildBinopSlots lowers a two-operand op reading slots x and y and writing
// slot z. Plain binops use (x, x+1, x); the opLocalBinop superinstruction
// reads two locals and pushes. own is the original instruction count (1, or
// 3 for the fused form), fall the erased-successor credit. The hot integer
// and float ops get fully specialized closures; everything else — including
// every op that can trap — goes through the shared binaryOp evaluator, which
// still beats tier 0 by skipping the outer dispatch.
func (b *t1builder) buildBinopSlots(op wasm.Opcode, x, y, z int, own, fall uint64, next int) t1op {
	cnt := own + fall
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
	case wasm.OpI32Or:
		return func(fr *t1frame) int {
			fr.regs[z] = (fr.regs[x] | fr.regs[y]) & math.MaxUint32
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
	case wasm.OpI32ShrS:
		return func(fr *t1frame) int {
			fr.regs[z] = I32(AsI32(fr.regs[x]) >> (AsU32(fr.regs[y]) & 31))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32ShrU:
		return func(fr *t1frame) int {
			fr.regs[z] = uint64(AsU32(fr.regs[x]) >> (AsU32(fr.regs[y]) & 31))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Eq:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsU32(fr.regs[x]) == AsU32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Ne:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsU32(fr.regs[x]) != AsU32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32LtS:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsI32(fr.regs[x]) < AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32LtU:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsU32(fr.regs[x]) < AsU32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32GtS:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsI32(fr.regs[x]) > AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32GtU:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsU32(fr.regs[x]) > AsU32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32LeS:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsI32(fr.regs[x]) <= AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32LeU:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsU32(fr.regs[x]) <= AsU32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32GeS:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsI32(fr.regs[x]) >= AsI32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32GeU:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsU32(fr.regs[x]) >= AsU32(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Add:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] + fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Sub:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] - fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Mul:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] * fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64And:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] & fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Or:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] | fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Xor:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] ^ fr.regs[y]
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Shl:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] << (fr.regs[y] & 63)
			fr.executed += cnt
			return next
		}
	case wasm.OpI64ShrU:
		return func(fr *t1frame) int {
			fr.regs[z] = fr.regs[x] >> (fr.regs[y] & 63)
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Eq:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(fr.regs[x] == fr.regs[y])
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Ne:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(fr.regs[x] != fr.regs[y])
			fr.executed += cnt
			return next
		}
	case wasm.OpI64LtS:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsI64(fr.regs[x]) < AsI64(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64LtU:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(fr.regs[x] < fr.regs[y])
			fr.executed += cnt
			return next
		}
	case wasm.OpI64GtS:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(AsI64(fr.regs[x]) > AsI64(fr.regs[y]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64GeU:
		return func(fr *t1frame) int {
			fr.regs[z] = boolVal(fr.regs[x] >= fr.regs[y])
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
	}
	// Generic path, covering the trapping ops (div/rem) and the long tail.
	// The own-count lands before evaluation so a trapping instruction is
	// counted, exactly like the tier-0 loop.
	return func(fr *t1frame) int {
		fr.executed += own
		v, err := binaryOp(op, fr.regs[x], fr.regs[y])
		if err != nil {
			fr.err = err
			return t1Trapped
		}
		fr.regs[z] = v
		fr.executed += fall
		return next
	}
}

// buildCmpBrIf lowers the fused "<comparison>; br_if" superinstruction
// comparing regs[x] and regs[y] (operand slots or, when fused with a
// preceding local-get pair, local slots directly). own is the original
// instruction count retired before the fuel charge. The i32 comparisons —
// the shape of virtually every hot loop header — get inline closures; the
// rest evaluate through binaryOp.
func (b *t1builder) buildCmpBrIf(pc int, in *instr, ht, x, y int, own uint64) t1op {
	t := b.tgt(int(in.a))
	crT := b.skipCnt[in.a]
	next, crF := b.fall(pc)
	dst, src, keep := b.moveFor(ht-2, in.b)
	op := wasm.Opcode(in.misc)

	take := func(fr *t1frame) int {
		if keep > 0 && dst != src {
			copy(fr.regs[dst:dst+keep], fr.regs[src:src+keep])
		}
		fr.executed += crT
		return t
	}
	var test func(l, r Value) bool
	switch op {
	case wasm.OpI32Eq:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsU32(fr.regs[x]) == AsU32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32Ne:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsU32(fr.regs[x]) != AsU32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32LtS:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsI32(fr.regs[x]) < AsI32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32LtU:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsU32(fr.regs[x]) < AsU32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32GtS:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsI32(fr.regs[x]) > AsI32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32GtU:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsU32(fr.regs[x]) > AsU32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32LeS:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsI32(fr.regs[x]) <= AsI32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32LeU:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsU32(fr.regs[x]) <= AsU32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32GeS:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsI32(fr.regs[x]) >= AsI32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	case wasm.OpI32GeU:
		return func(fr *t1frame) int {
			fr.executed += own
			if !fr.chargeFuel() {
				fr.err = newTrap(TrapOutOfFuel)
				return t1Trapped
			}
			if AsU32(fr.regs[x]) >= AsU32(fr.regs[y]) {
				return take(fr)
			}
			fr.executed += crF
			return next
		}
	default:
		test = func(l, r Value) bool {
			v, _ := binaryOp(op, l, r) // comparisons cannot trap
			return v != 0
		}
	}
	return func(fr *t1frame) int {
		fr.executed += own
		if !fr.chargeFuel() {
			fr.err = newTrap(TrapOutOfFuel)
			return t1Trapped
		}
		if test(fr.regs[x], fr.regs[y]) {
			return take(fr)
		}
		fr.executed += crF
		return next
	}
}

// buildUnary lowers a one-operand fixed-shape op operating in place on the
// top slot.
func (b *t1builder) buildUnary(op wasm.Opcode, ht, pc int) t1op {
	c := b.slot(ht, 1)
	next, crF := b.fall(pc)
	cnt := 1 + crF
	switch op {
	case wasm.OpI32Eqz:
		return func(fr *t1frame) int {
			fr.regs[c] = boolVal(AsU32(fr.regs[c]) == 0)
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Eqz:
		return func(fr *t1frame) int {
			fr.regs[c] = boolVal(fr.regs[c] == 0)
			fr.executed += cnt
			return next
		}
	case wasm.OpI32WrapI64:
		return func(fr *t1frame) int {
			fr.regs[c] = I32(int32(fr.regs[c]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64ExtendI32S:
		return func(fr *t1frame) int {
			fr.regs[c] = I64(int64(AsI32(fr.regs[c])))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64ExtendI32U:
		return func(fr *t1frame) int {
			fr.regs[c] = uint64(AsU32(fr.regs[c]))
			fr.executed += cnt
			return next
		}
	}
	// Generic path: unaryOp covers the trapping float->int truncations.
	return func(fr *t1frame) int {
		fr.executed++
		v, err, ok := unaryOp(op, fr.regs[c])
		if !ok {
			fr.err = newTrap(TrapUnreachable)
			return t1Trapped
		}
		if err != nil {
			fr.err = err
			return t1Trapped
		}
		fr.regs[c] = v
		fr.executed += crF
		return next
	}
}

// buildLoad lowers a memory load: address in the top slot, replaced by the
// value. The bounds check and zero/sign extension replicate Memory.load and
// loadSigned exactly.
func (b *t1builder) buildLoad(in *instr, ht, pc int) t1op {
	c := b.slot(ht, 1)
	off := in.a
	next, crF := b.fall(pc)
	cnt := 1 + crF
	oob := func(fr *t1frame) int {
		fr.executed++
		fr.err = newTrap(TrapMemoryOutOfBounds)
		return t1Trapped
	}
	switch in.op {
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+4 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = uint64(binary.LittleEndian.Uint32(m.data[ea:]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Load, wasm.OpF64Load:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+8 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = binary.LittleEndian.Uint64(m.data[ea:])
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+1 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = uint64(m.data[ea])
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+2 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = uint64(binary.LittleEndian.Uint16(m.data[ea:]))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Load8S:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+1 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = I32(int32(int8(m.data[ea])))
			fr.executed += cnt
			return next
		}
	case wasm.OpI32Load16S:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+2 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = I32(int32(int16(binary.LittleEndian.Uint16(m.data[ea:]))))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Load8S:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+1 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = I64(int64(int8(m.data[ea])))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Load16S:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+2 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = I64(int64(int16(binary.LittleEndian.Uint16(m.data[ea:]))))
			fr.executed += cnt
			return next
		}
	case wasm.OpI64Load32S:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+4 > uint64(len(m.data)) {
				return oob(fr)
			}
			fr.regs[c] = I64(int64(int32(binary.LittleEndian.Uint32(m.data[ea:]))))
			fr.executed += cnt
			return next
		}
	}
	b.fail()
	return nil
}

// buildStore lowers a memory store: value in regs[v] (the top slot, or a
// local slot when fused with a preceding local.get), address in regs[c].
// own is the original instruction count. The inline bounds check is against
// the memory's writable slice and the dirty-page marking (first page plus the
// rare straddle) is byte-for-byte the Memory.storeAt hot path.
func (b *t1builder) buildStore(in *instr, v, c int, own uint64, pc int) t1op {
	off := in.a
	width := uint64(in.misc)
	next, crF := b.fall(pc)
	cnt := own + crF
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
	case 2:
		return func(fr *t1frame) int {
			m := fr.mem
			ea := uint64(AsU32(fr.regs[c])) + off
			if ea+2 > uint64(len(m.wr)) {
				return slow(fr, ea, fr.regs[v])
			}
			binary.LittleEndian.PutUint16(m.wr[ea:], uint16(fr.regs[v]))
			p := ea >> 16
			m.dirty[p>>6] |= 1 << (p & 63)
			if last := (ea + 1) >> 16; last != p {
				m.dirty[last>>6] |= 1 << (last & 63)
			}
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
	b.fail()
	return nil
}

// buildMisc lowers the 0xFC-prefixed ops: the eight saturating truncations
// (in-place on the top slot) and the bulk-memory copy/fill.
func (b *t1builder) buildMisc(pc int, in *instr, ht int) t1op {
	next, crF := b.fall(pc)
	switch in.misc {
	case wasm.MiscMemoryCopy:
		c1 := b.slot(ht, 1) // n
		c2 := b.slot(ht, 2) // src
		c3 := b.slot(ht, 3) // dst
		return func(fr *t1frame) int {
			fr.executed++
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
	case wasm.MiscMemoryFill:
		c1 := b.slot(ht, 1) // n
		c2 := b.slot(ht, 2) // value
		c3 := b.slot(ht, 3) // dst
		return func(fr *t1frame) int {
			fr.executed++
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
	// Saturating truncations: in place on the top slot, cannot trap.
	c := b.slot(ht, 1)
	cnt := 1 + crF
	switch in.misc {
	case wasm.MiscI32TruncSatF32S:
		return func(fr *t1frame) int {
			fr.regs[c] = I32(truncSatI32(float64(AsF32(fr.regs[c]))))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI32TruncSatF32U:
		return func(fr *t1frame) int {
			fr.regs[c] = uint64(truncSatU32(float64(AsF32(fr.regs[c]))))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI32TruncSatF64S:
		return func(fr *t1frame) int {
			fr.regs[c] = I32(truncSatI32(AsF64(fr.regs[c])))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI32TruncSatF64U:
		return func(fr *t1frame) int {
			fr.regs[c] = uint64(truncSatU32(AsF64(fr.regs[c])))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI64TruncSatF32S:
		return func(fr *t1frame) int {
			fr.regs[c] = I64(truncSatI64(float64(AsF32(fr.regs[c]))))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI64TruncSatF32U:
		return func(fr *t1frame) int {
			fr.regs[c] = truncSatU64(float64(AsF32(fr.regs[c])))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI64TruncSatF64S:
		return func(fr *t1frame) int {
			fr.regs[c] = I64(truncSatI64(AsF64(fr.regs[c])))
			fr.executed += cnt
			return next
		}
	case wasm.MiscI64TruncSatF64U:
		return func(fr *t1frame) int {
			fr.regs[c] = truncSatU64(AsF64(fr.regs[c]))
			fr.executed += cnt
			return next
		}
	}
	b.fail()
	return nil
}
