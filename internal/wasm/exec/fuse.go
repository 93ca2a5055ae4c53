package exec

import "wasmcontainers/internal/wasm"

// Superinstruction opcodes. These never appear in wasm binaries: the fusion
// pass below emits them into compiled code, in the gap between the spec's
// highest one-byte opcode (0xC4) and the 0xFC prefix. Each one replaces a
// dominant multi-instruction pattern with a single dispatch.
const (
	// opI32AddConst fuses "i32.const K; i32.add" (a = K as uint32 bits).
	opI32AddConst wasm.Opcode = 0xE0
	// opI64AddConst fuses "i64.const K; i64.add" (a = K).
	opI64AddConst wasm.Opcode = 0xE1
	// opLocalGetPair fuses "local.get i; local.get j" (a = i<<32 | j).
	opLocalGetPair wasm.Opcode = 0xE2
	// opLocalBinop fuses "local.get i; local.get j; <binop>"
	// (misc = binop opcode, a = i<<32 | j).
	opLocalBinop wasm.Opcode = 0xE3
	// opCmpBrIf fuses "<comparison>; br_if" (misc = comparison opcode,
	// a/b = the br_if's target pc and packed drop/keep).
	opCmpBrIf wasm.Opcode = 0xE4
)

// isCmpBinop reports whether op is a binary comparison (result 0/1,
// cannot trap). Eqz is unary and excluded.
func isCmpBinop(op wasm.Opcode) bool {
	switch {
	case op >= wasm.OpI32Eq && op <= wasm.OpI32GeU:
		return true
	case op >= wasm.OpI64Eq && op <= wasm.OpI64GeU:
		return true
	case op >= wasm.OpF32Eq && op <= wasm.OpF64Ge:
		return true
	}
	return false
}

// isFusableBinop reports whether op is a two-operand op handled by binaryOp,
// i.e. safe to execute from a fused superinstruction.
func isFusableBinop(op wasm.Opcode) bool {
	if isCmpBinop(op) {
		return true
	}
	switch {
	case op >= wasm.OpI32Add && op <= wasm.OpI32Rotr:
		return true
	case op >= wasm.OpI64Add && op <= wasm.OpI64Rotr:
		return true
	case op >= wasm.OpF32Add && op <= wasm.OpF32Copysign:
		return true
	case op >= wasm.OpF64Add && op <= wasm.OpF64Copysign:
		return true
	}
	return false
}

// fuse rewrites the body in c.instrs in place, merging dominant instruction
// sequences into superinstructions. An instruction that is a branch target
// is never merged into a predecessor (a jump must be able to land on it), and
// every branch target — in the body and in c.brTables — is remapped to its
// post-fusion index. The interpreter credits each superinstruction with its
// original instruction count, so Store.InstructionCount — and all simulated
// timing derived from it — is unchanged by fusion.
func (c *compiler) fuse() {
	instrs := c.instrs
	// index[i] starts as -1 where pc i is a branch target and 0 elsewhere
	// (emitBody). The pass below looks only at entries ahead of i and, once
	// it has consumed pc i, overwrites index[i] with where i went.
	index := c.index
	target := c.isTarget

	out := 0
	i := 0
	for i < len(instrs) {
		in := instrs[i]
		n := 1 // original instructions consumed by the emitted one
		switch {
		case in.op == wasm.OpLocalGet && i+2 < len(instrs) &&
			instrs[i+1].op == wasm.OpLocalGet && !target(i+1) &&
			!target(i+2) && isFusableBinop(instrs[i+2].op):
			in = instr{op: opLocalBinop, misc: uint32(instrs[i+2].op), a: in.a<<32 | instrs[i+1].a}
			n = 3
		case isCmpBinop(in.op) && i+1 < len(instrs) &&
			instrs[i+1].op == wasm.OpBrIf && !target(i+1):
			in = instr{op: opCmpBrIf, misc: uint32(in.op), a: instrs[i+1].a, b: instrs[i+1].b}
			n = 2
		case in.op == wasm.OpLocalGet && i+1 < len(instrs) &&
			instrs[i+1].op == wasm.OpLocalGet && !target(i+1):
			in = instr{op: opLocalGetPair, a: in.a<<32 | instrs[i+1].a}
			n = 2
		case in.op == wasm.OpI32Const && i+1 < len(instrs) &&
			instrs[i+1].op == wasm.OpI32Add && !target(i+1):
			in = instr{op: opI32AddConst, a: in.a}
			n = 2
		case in.op == wasm.OpI64Const && i+1 < len(instrs) &&
			instrs[i+1].op == wasm.OpI64Add && !target(i+1):
			in = instr{op: opI64AddConst, a: in.a}
			n = 2
		}
		// out <= i: the slot written has been read already.
		instrs[out] = in
		for j := 0; j < n; j++ {
			index[i+j] = int32(out)
		}
		out++
		i += n
	}

	instrs = instrs[:out]
	for k := range instrs {
		switch instrs[k].op {
		case wasm.OpIf, wasm.OpElse, wasm.OpBr, wasm.OpBrIf, opCmpBrIf:
			instrs[k].a = uint64(index[instrs[k].a])
		}
	}
	for _, table := range c.brTables {
		for ei := range table {
			table[ei].pc = uint64(index[table[ei].pc])
		}
	}
	c.instrs = instrs
}
