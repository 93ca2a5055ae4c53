package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"wasmcontainers/internal/wasm"
)

// instr is one pre-decoded instruction. Branch targets are resolved to
// instruction indices at compile time, and every branch carries the stack
// fixup (how many values to keep from the top, how many to drop beneath
// them) so the interpreter needs no label stack.
type instr struct {
	op   wasm.Opcode
	misc uint32 // 0xFC sub-opcode, or load/store width, or br-table index
	a    uint64 // primary immediate: const bits, target pc, func/local index, mem offset
	b    uint64 // secondary immediate: packed drop<<32|keep for branches
}

func packDropKeep(drop, keep int) uint64 {
	if drop < 0 {
		drop = 0
	}
	return uint64(drop)<<32 | uint64(uint32(keep))
}

func unpackDropKeep(b uint64) (drop, keep int) {
	return int(b >> 32), int(uint32(b))
}

// brTableEntry is one resolved br_table target.
type brTableEntry struct {
	pc       uint64
	dropKeep uint64
}

// compiledCode is the executable form of a function body, with the hotness
// counters of the function it belongs to.
type compiledCode struct {
	instrs    []instr
	brTables  [][]brTableEntry
	maxHeight int // static operand-stack bound
	hot       hotCount
}

// sizeBytes approximates the resident size of the compiled artifact: the
// instruction stream, the branch tables, and a fixed header. This is what the
// module cache's byte bound and the shared-code memory accounting charge.
func (cc *compiledCode) sizeBytes() int64 {
	n := int64(len(cc.instrs)) * 24
	for _, t := range cc.brTables {
		n += int64(len(t)) * 16
	}
	return n + 64
}

// ctFrame is a compile-time control frame.
type ctFrame struct {
	op        wasm.Opcode
	base      int // operand-stack height beneath the block's parameters
	nIn       int
	nOut      int
	startPC   int  // pc of the block/loop/if instruction
	patchBase int  // len(c.patches) when the frame opened
	elsePC    int  // pc of the else instruction, or -1
	wasUnrea  bool // saved outer unreachable state
}

// patchLen is the size of one forward patch in compiler.patches: the ctrl
// index of the block whose end the branch waits for, the branch's
// instruction, and the br_table entry it concerns, or -1 for a br, br_if or
// else, whose own target operand a takes the end's pc.
const patchLen = 3

// compiler is the scratch state of lowering a module's function bodies.
// Precompile and tier 1's lowering each make one per module, size its
// buffers for the module's longest body (reserveFor) and reuse them from body
// to body; a body keeps only an exact-size copy of its fused code.
type compiler struct {
	m        *wasm.Module
	ft       wasm.FuncType
	instrs   []instr // the body being compiled; fuse compacts it in place
	heights  []int32 // per emitted instruction: operand-stack height at entry, -1 where unreachable
	brTables [][]brTableEntry
	ctrl     []ctFrame
	height   int
	maxH     int
	unrea    bool
	entry    int32    // the height emit records for the instruction being read
	targets  []uint32 // one br_table's depths
	// index is -1 where some branch lands on the emitted instruction and 0
	// elsewhere; fuse then overwrites each entry with where its pc went.
	index []int32
	// patches holds the forward branches still waiting for a block's end,
	// patchLen int32s each, in the order they were emitted.
	patches []int32
}

// isTarget reports whether a branch lands on pc, until fuse has run.
func (c *compiler) isTarget(pc int) bool { return c.index[pc] < 0 }

// reserveFor sizes the scratch for m's longest body, n bytes. Every
// instruction emitted, and every forward patch (a br, br_if, else or
// br_table entry), takes at least one byte of its body.
func (c *compiler) reserveFor(m *wasm.Module) {
	n := 0
	for i := range m.Codes {
		n = max(n, len(m.Codes[i].Body))
	}
	c.instrs = make([]instr, 0, n)
	buf := make([]int32, (2+patchLen)*n)
	c.heights, c.index, c.patches = buf[:0:n], buf[n:n:2*n], buf[2*n:2*n]
	c.ctrl = make([]ctFrame, 0, 8)
}

// compileBody lowers a validated function body into cc: the emit pass, tier
// 0's fusion, and an exact-size copy.
func (c *compiler) compileBody(ft wasm.FuncType, code *wasm.Code, cc *compiledCode) error {
	if err := c.emitBody(ft, code); err != nil {
		return err
	}
	c.fuse()
	cc.instrs, cc.maxHeight = slices.Clone(c.instrs), c.maxH+1
	if len(c.brTables) > 0 {
		cc.brTables = slices.Clone(c.brTables)
	}
	return nil
}

// emitBody lowers a validated function body to the plain instruction stream
// in c.instrs and c.brTables, recording each instruction's entry height in
// c.heights (-1 where typing makes it unreachable), the branch targets in
// c.index and the height bound in c.maxH. The body is assumed valid:
// emitBody panics on structural impossibilities rather than returning rich
// errors.
func (c *compiler) emitBody(ft wasm.FuncType, code *wasm.Code) error {
	c.ft = ft
	c.instrs, c.heights, c.index = c.instrs[:0], c.heights[:0], c.index[:0]
	c.brTables, c.ctrl, c.patches = c.brTables[:0], c.ctrl[:0], c.patches[:0]
	c.height, c.maxH, c.unrea = 0, 0, false
	c.pushCtrl(0, 0, len(ft.Results), -1)

	buf := code.Body
	pos := 0
	readU32 := func() uint32 {
		v, n := mustReadU32(buf[pos:])
		pos += n
		return v
	}
	for pos < len(buf) {
		op := wasm.Opcode(buf[pos])
		pos++
		c.entry = int32(c.height)
		if c.unrea {
			c.entry = -1
		}
		switch op {
		case wasm.OpUnreachable:
			c.emit(instr{op: op})
			c.setUnreachable()
		case wasm.OpNop:
			// Not emitted: pure padding.
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			bt, n := mustReadS33(buf[pos:])
			pos += n
			nIn, nOut := c.blockArity(bt)
			if op == wasm.OpIf {
				c.pop(1) // condition
			}
			pc := c.emit(instr{op: op})
			c.pop(nIn)
			c.pushCtrl(op, nIn, nOut, pc)
			c.push(nIn)
		case wasm.OpElse:
			f := &c.ctrl[len(c.ctrl)-1]
			// Terminate the then-branch with a jump to end (patched later).
			jmp := c.emit(instr{op: wasm.OpElse})
			c.addPatch(len(c.ctrl)-1, jmp, -1)
			f.elsePC = jmp
			c.height = f.base + f.nIn
			c.unrea = f.wasUnrea
			// Re-borrow the frame's unreachable baseline for the else arm.
			c.ctrl[len(c.ctrl)-1].wasUnrea = c.unrea
		case wasm.OpEnd:
			endPC := c.emit(instr{op: wasm.OpEnd})
			f := c.ctrl[len(c.ctrl)-1]
			c.ctrl = c.ctrl[:len(c.ctrl)-1]
			c.resolvePatches(f.patchBase, endPC)
			if f.op == wasm.OpIf && f.elsePC == -1 {
				// No else: the if jumps to end when false.
				c.instrs[f.startPC].a = uint64(endPC)
				c.index[endPC] = -1
			} else if f.op == wasm.OpIf {
				// With else: false jumps just past the else jump.
				c.instrs[f.startPC].a = uint64(f.elsePC + 1)
				c.index[f.elsePC+1] = -1
			}
			c.height = f.base + f.nOut
			c.maxTrack()
			c.heights[endPC] = int32(c.height) // reachable again, as typing says
			c.unrea = f.wasUnrea
			if len(c.ctrl) == 0 {
				// Implicit function end: emit a return for the interpreter.
				c.instrs[endPC] = instr{op: wasm.OpReturn, b: packDropKeep(0, len(c.ft.Results))}
				return nil
			}
		case wasm.OpBr, wasm.OpBrIf:
			depth := readU32()
			if op == wasm.OpBrIf {
				c.pop(1)
			}
			pc, dk := c.branchTo(depth)
			idx := c.emit(instr{op: op, a: pc, b: dk})
			c.patchIfForward(depth, idx, -1)
			if op == wasm.OpBr {
				c.setUnreachable()
			}
		case wasm.OpBrTable:
			// The n depths, then the default.
			n := readU32()
			c.targets = c.targets[:0]
			for i := uint32(0); i <= n; i++ {
				c.targets = append(c.targets, readU32())
			}
			c.pop(1) // index
			entries := make([]brTableEntry, 0, n+1)
			for _, t := range c.targets {
				pc, dk := c.branchTo(t)
				entries = append(entries, brTableEntry{pc: pc, dropKeep: dk})
			}
			c.brTables = append(c.brTables, entries)
			idx := c.emit(instr{op: op, misc: uint32(len(c.brTables) - 1)})
			// Register forward patches: entry i of the table.
			for i, t := range c.targets {
				c.patchIfForward(t, idx, i)
			}
			c.setUnreachable()
		case wasm.OpReturn:
			c.emit(instr{op: op, b: packDropKeep(0, len(c.ft.Results))})
			c.setUnreachable()
		case wasm.OpCall:
			fi := readU32()
			ft, err := c.m.FuncTypeAt(fi)
			if err != nil {
				return err
			}
			c.pop(len(ft.Params))
			c.emit(instr{op: op, a: uint64(fi)})
			c.push(len(ft.Results))
		case wasm.OpCallIndirect:
			ti := readU32()
			pos++ // reserved table byte
			ft := c.m.Types[ti]
			c.pop(1 + len(ft.Params))
			c.emit(instr{op: op, a: uint64(ti)})
			c.push(len(ft.Results))
		case wasm.OpDrop:
			c.pop(1)
			c.emit(instr{op: op})
		case wasm.OpSelect:
			c.pop(3)
			c.emit(instr{op: op})
			c.push(1)
		case wasm.OpLocalGet:
			c.emit(instr{op: op, a: uint64(readU32())})
			c.push(1)
		case wasm.OpLocalSet:
			c.pop(1)
			c.emit(instr{op: op, a: uint64(readU32())})
		case wasm.OpLocalTee:
			c.emit(instr{op: op, a: uint64(readU32())})
		case wasm.OpGlobalGet:
			c.emit(instr{op: op, a: uint64(readU32())})
			c.push(1)
		case wasm.OpGlobalSet:
			c.pop(1)
			c.emit(instr{op: op, a: uint64(readU32())})
		case wasm.OpMemorySize:
			pos++ // reserved
			c.emit(instr{op: op})
			c.push(1)
		case wasm.OpMemoryGrow:
			pos++ // reserved
			c.pop(1)
			c.emit(instr{op: op})
			c.push(1)
		case wasm.OpI32Const:
			v, n := mustReadS32(buf[pos:])
			pos += n
			c.emit(instr{op: op, a: uint64(uint32(v))})
			c.push(1)
		case wasm.OpI64Const:
			v, n := mustReadS64(buf[pos:])
			pos += n
			c.emit(instr{op: op, a: uint64(v)})
			c.push(1)
		case wasm.OpF32Const:
			c.emit(instr{op: op, a: uint64(binary.LittleEndian.Uint32(buf[pos:]))})
			pos += 4
			c.push(1)
		case wasm.OpF64Const:
			c.emit(instr{op: op, a: binary.LittleEndian.Uint64(buf[pos:])})
			pos += 8
			c.push(1)
		case wasm.OpMisc:
			sub, n := mustReadU32(buf[pos:])
			pos += n
			switch sub {
			case wasm.MiscMemoryCopy:
				pos += 2
				c.pop(3)
			case wasm.MiscMemoryFill:
				pos++
				c.pop(3)
			default: // trunc_sat: 1 -> 1
				c.pop(1)
				c.push(0) // net zero; value replaced
			}
			c.emit(instr{op: op, misc: sub})
			if sub < wasm.MiscMemoryCopy {
				c.push(1)
			}
		default:
			// Fixed-arity numeric and memory instructions.
			in, out, width, isMem := fixedShape(op)
			if isMem {
				// align, offset immediates
				_, n1 := mustReadU32(buf[pos:])
				pos += n1
				off, n2 := mustReadU32(buf[pos:])
				pos += n2
				c.pop(in)
				c.emit(instr{op: op, misc: uint32(width), a: uint64(off)})
				c.push(out)
			} else {
				c.pop(in)
				c.emit(instr{op: op})
				c.push(out)
			}
		}
	}
	return fmt.Errorf("exec: function body ended without end opcode")
}

func (c *compiler) emit(i instr) int {
	c.instrs = append(c.instrs, i)
	c.heights = append(c.heights, c.entry)
	c.index = append(c.index, 0)
	return len(c.instrs) - 1
}

func (c *compiler) push(n int) {
	c.height += n
	c.maxTrack()
}

func (c *compiler) maxTrack() {
	if c.height > c.maxH {
		c.maxH = c.height
	}
}

func (c *compiler) pop(n int) {
	c.height -= n
	if c.height < 0 {
		// Only possible in unreachable code, which never executes.
		c.height = 0
	}
}

// pushCtrl opens a control frame.
func (c *compiler) pushCtrl(op wasm.Opcode, nIn, nOut, startPC int) {
	c.ctrl = append(c.ctrl, ctFrame{
		op: op, base: c.height, nIn: nIn, nOut: nOut,
		startPC: startPC, patchBase: len(c.patches),
		elsePC: -1, wasUnrea: c.unrea,
	})
}

func (c *compiler) setUnreachable() {
	f := &c.ctrl[len(c.ctrl)-1]
	c.height = f.base + f.nIn
	c.unrea = true
}

// branchTo computes the resolved target pc (loops) or a placeholder (forward
// branches, patched at the matching end) plus the drop/keep packing.
func (c *compiler) branchTo(depth uint32) (pc uint64, dropKeep uint64) {
	f := &c.ctrl[len(c.ctrl)-1-int(depth)]
	keep := f.nOut
	if f.op == wasm.OpLoop {
		keep = f.nIn
	}
	drop := c.height - keep - f.base
	if f.op == wasm.OpLoop {
		c.index[f.startPC] = -1
		return uint64(f.startPC), packDropKeep(drop, keep)
	}
	return 0, packDropKeep(drop, keep) // pc patched later
}

// patchIfForward records the branch at instrIdx (its br_table entry, or -1)
// for patching when its target is a block's end.
func (c *compiler) patchIfForward(depth uint32, instrIdx, entry int) {
	frame := len(c.ctrl) - 1 - int(depth)
	if c.ctrl[frame].op != wasm.OpLoop {
		c.addPatch(frame, instrIdx, entry)
	}
}

func (c *compiler) addPatch(frame, instrIdx, entry int) {
	c.patches = append(c.patches, int32(frame), int32(instrIdx), int32(entry))
}

// resolvePatches writes endPC into every patch from base on that waits for
// the block just closed (ctrl index len(c.ctrl)) and keeps the rest, which
// wait for blocks still open, in order.
func (c *compiler) resolvePatches(base, endPC int) {
	frame, kept := int32(len(c.ctrl)), base
	for i := base; i < len(c.patches); i += patchLen {
		p := c.patches[i : i+patchLen]
		if p[0] != frame {
			kept += copy(c.patches[kept:], p)
			continue
		}
		if at, entry := p[1], p[2]; entry < 0 {
			c.instrs[at].a = uint64(endPC)
		} else {
			c.brTables[c.instrs[at].misc][entry].pc = uint64(endPC)
		}
		c.index[endPC] = -1
	}
	c.patches = c.patches[:kept]
}

func (c *compiler) blockArity(bt int64) (in, out int) {
	if bt >= 0 {
		t := c.m.Types[int(bt)]
		return len(t.Params), len(t.Results)
	}
	if bt == wasm.BlockTypeEmpty {
		return 0, 0
	}
	return 0, 1
}

// fixedShape returns stack arity and memory-access width for fixed-signature
// instructions. isMem marks load/store instructions carrying memarg
// immediates; width is the access size in bytes.
func fixedShape(op wasm.Opcode) (in, out, width int, isMem bool) {
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load:
		return 1, 1, 4, true
	case wasm.OpI64Load, wasm.OpF64Load:
		return 1, 1, 8, true
	case wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI64Load8S, wasm.OpI64Load8U:
		return 1, 1, 1, true
	case wasm.OpI32Load16S, wasm.OpI32Load16U, wasm.OpI64Load16S, wasm.OpI64Load16U:
		return 1, 1, 2, true
	case wasm.OpI64Load32S, wasm.OpI64Load32U:
		return 1, 1, 4, true
	case wasm.OpI32Store, wasm.OpF32Store:
		return 2, 0, 4, true
	case wasm.OpI64Store, wasm.OpF64Store:
		return 2, 0, 8, true
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return 2, 0, 1, true
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return 2, 0, 2, true
	case wasm.OpI64Store32:
		return 2, 0, 4, true
	}
	// Non-memory fixed ops: classify by arity.
	switch op {
	case wasm.OpI32Eqz, wasm.OpI64Eqz,
		wasm.OpI32Clz, wasm.OpI32Ctz, wasm.OpI32Popcnt,
		wasm.OpI64Clz, wasm.OpI64Ctz, wasm.OpI64Popcnt,
		wasm.OpF32Abs, wasm.OpF32Neg, wasm.OpF32Ceil, wasm.OpF32Floor, wasm.OpF32Trunc, wasm.OpF32Nearest, wasm.OpF32Sqrt,
		wasm.OpF64Abs, wasm.OpF64Neg, wasm.OpF64Ceil, wasm.OpF64Floor, wasm.OpF64Trunc, wasm.OpF64Nearest, wasm.OpF64Sqrt,
		wasm.OpI32WrapI64, wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI32TruncF64S, wasm.OpI32TruncF64U,
		wasm.OpI64ExtendI32S, wasm.OpI64ExtendI32U, wasm.OpI64TruncF32S, wasm.OpI64TruncF32U,
		wasm.OpI64TruncF64S, wasm.OpI64TruncF64U,
		wasm.OpF32ConvertI32S, wasm.OpF32ConvertI32U, wasm.OpF32ConvertI64S, wasm.OpF32ConvertI64U, wasm.OpF32DemoteF64,
		wasm.OpF64ConvertI32S, wasm.OpF64ConvertI32U, wasm.OpF64ConvertI64S, wasm.OpF64ConvertI64U, wasm.OpF64PromoteF32,
		wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64, wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64,
		wasm.OpI32Extend8S, wasm.OpI32Extend16S, wasm.OpI64Extend8S, wasm.OpI64Extend16S, wasm.OpI64Extend32S:
		return 1, 1, 0, false
	default:
		// Everything else in the fixed set is a binary op producing one value.
		return 2, 1, 0, false
	}
}

// mustReadU32 and friends decode immediates from already-validated bodies.
func mustReadU32(b []byte) (uint32, int) {
	v, n, err := wasm.ReadU32(b)
	if err != nil {
		panic("exec: corrupt validated body: " + err.Error())
	}
	return v, n
}

func mustReadS32(b []byte) (int32, int) {
	v, n, err := wasm.ReadS32(b)
	if err != nil {
		panic("exec: corrupt validated body: " + err.Error())
	}
	return v, n
}

func mustReadS64(b []byte) (int64, int) {
	v, n, err := wasm.ReadS64(b)
	if err != nil {
		panic("exec: corrupt validated body: " + err.Error())
	}
	return v, n
}

func mustReadS33(b []byte) (int64, int) {
	v, n, err := wasm.ReadS33(b)
	if err != nil {
		panic("exec: corrupt validated body: " + err.Error())
	}
	return v, n
}
