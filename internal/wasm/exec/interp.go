package exec

import (
	"fmt"
	"math"
	"math/bits"

	"wasmcontainers/internal/wasm"
)

// invoke runs f with the given arguments, dispatching to host functions, the
// tier-1 direct-threaded body when one has been published, or the tier-0
// interpreter loop. This is the top-level entry (Instance.Call and start
// functions); it is also where hotness is recorded and the tier-up policy
// evaluated, so nested calls — which can number tens of thousands per
// invoke — never touch the counters.
func (inst *Instance) invoke(f *function, args []Value) ([]Value, error) {
	s := inst.store
	if f.host != nil {
		res, err := inst.callHost(f.host, args)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	s.depth++
	if s.depth > s.cfg.MaxCallDepth {
		s.depth--
		return nil, newTrap(TrapCallStackExhausted)
	}
	res := make([]Value, len(f.typ.Results))
	var err error
	ran1 := false
	var tc *Tier1Code
	if mc := f.mc; mc != nil {
		if tc = mc.tier1.Load(); tc != nil {
			ran1, err = s.t1Call(f, tc, args, res)
		}
	}
	if !ran1 {
		before := s.instrCount
		err = f.inst.run(f, args, res)
		if f.mc != nil && tc == nil {
			if f.mc.noteInvoke(f.mcIdx, s.instrCount-before) {
				f.mc.EnsureTier1()
			}
		}
	}
	s.lastInvokeTier = 0
	if ran1 {
		s.lastInvokeTier = 1
	}
	s.depth--
	if err != nil {
		return nil, pushFrame(err, f)
	}
	return res, nil
}

// Trap stacks are bounded so a deep-recursion trap stays readable: the
// innermost trapFrameHead frames are kept verbatim, and the remaining slots
// hold a sliding window of the outermost frames collected so far, so the
// entry point always survives. Trap.Elided counts the middle frames dropped
// in between.
const (
	maxTrapFrames = 16
	trapFrameHead = 8
)

// pushFrame appends f to a propagating trap's wasm stack.
func pushFrame(err error, f *function) error {
	t, ok := err.(*Trap)
	if !ok {
		return err
	}
	if len(t.Frames) < maxTrapFrames {
		t.Frames = append(t.Frames, f.inst.funcLabel(f.idx))
		return err
	}
	// Full: slide the outer window left, dropping its oldest frame, so the
	// newest (outermost so far, ultimately the entry point) stays.
	copy(t.Frames[trapFrameHead:], t.Frames[trapFrameHead+1:])
	t.Frames[maxTrapFrames-1] = f.inst.funcLabel(f.idx)
	t.Elided++
	return err
}

// run executes a compiled wasm function body. Arguments are copied into the
// frame's locals immediately, and results are written into res (len must be
// len(f.typ.Results)) just before returning — so callers may pass views of
// their own operand stack for both without aliasing hazards.
//
// Accounting is batched: the global instruction counter is flushed on exit,
// and fuel is charged per basic block — at control transfers (branches and
// calls) and on exit — rather than per instruction. A fueled store therefore
// traps at the first block boundary after exhaustion instead of on the exact
// instruction, which tightens the hot loop while still bounding execution
// (every loop iteration crosses a branch).
func (inst *Instance) run(f *function, args []Value, res []Value) error {
	s := inst.store
	if s.fueled && s.fuelLeft == 0 {
		return newTrap(TrapOutOfFuel)
	}
	code := f.code
	nl := f.numParams + f.numLocals
	buf := s.getFrame(nl + code.maxHeight)
	locals := buf[:nl]
	n := copy(locals, args)
	for i := n; i < nl; i++ {
		locals[i] = 0
	}
	stack := buf[nl:nl]
	mem := inst.mem

	instrs := code.instrs
	pc := 0
	executed := uint64(0)
	charged := uint64(0)
	defer func() {
		s.instrCount += executed
		if s.fueled {
			if d := executed - charged; d > s.fuelLeft {
				s.fuelLeft = 0
			} else {
				s.fuelLeft -= d
			}
		}
		s.putFrame(buf)
	}()

	for {
		in := &instrs[pc]
		executed++
		switch in.op {
		case wasm.OpUnreachable:
			return newTrap(TrapUnreachable)
		case wasm.OpBlock, wasm.OpLoop, wasm.OpEnd:
			// Structure markers: no effect at runtime.
		case wasm.OpIf:
			cond := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cond == 0 {
				pc = int(in.a)
				continue
			}
		case wasm.OpElse:
			// Jump emitted at the end of a then-branch.
			pc = int(in.a)
			continue
		case wasm.OpBr:
			if s.fueled {
				d := executed - charged
				charged = executed
				if !s.spendFuel(d) {
					return newTrap(TrapOutOfFuel)
				}
			}
			stack = adjustStack(stack, in.b)
			pc = int(in.a)
			continue
		case wasm.OpBrIf:
			if s.fueled {
				d := executed - charged
				charged = executed
				if !s.spendFuel(d) {
					return newTrap(TrapOutOfFuel)
				}
			}
			cond := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cond != 0 {
				stack = adjustStack(stack, in.b)
				pc = int(in.a)
				continue
			}
		case opCmpBrIf:
			// Fused "<comparison>; br_if": two original instructions.
			executed++
			if s.fueled {
				d := executed - charged
				charged = executed
				if !s.spendFuel(d) {
					return newTrap(TrapOutOfFuel)
				}
			}
			rhs, lhs := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			cond, _ := binaryOp(wasm.Opcode(in.misc), lhs, rhs) // comparisons cannot trap
			if cond != 0 {
				stack = adjustStack(stack, in.b)
				pc = int(in.a)
				continue
			}
		case wasm.OpBrTable:
			if s.fueled {
				d := executed - charged
				charged = executed
				if !s.spendFuel(d) {
					return newTrap(TrapOutOfFuel)
				}
			}
			idx := AsU32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			table := code.brTables[in.misc]
			ent := table[len(table)-1] // default
			if int(idx) < len(table)-1 {
				ent = table[idx]
			}
			stack = adjustStack(stack, ent.dropKeep)
			pc = int(ent.pc)
			continue
		case wasm.OpReturn:
			_, keep := unpackDropKeep(in.b)
			copy(res, stack[len(stack)-keep:])
			return nil
		case wasm.OpCall:
			if s.fueled {
				d := executed - charged
				charged = executed
				if !s.spendFuel(d) {
					return newTrap(TrapOutOfFuel)
				}
			}
			callee := &inst.funcs[in.a]
			np := callee.numParams
			nr := len(callee.typ.Results)
			base := len(stack) - np
			// The callee writes results over its argument slots: it copies
			// args into its own locals (or the host adapter buffers them)
			// before the result write, so the overlap is safe.
			if err := inst.invokeNested(callee, stack[base:], stack[base:base+nr]); err != nil {
				return err
			}
			stack = stack[:base+nr]
		case wasm.OpCallIndirect:
			if s.fueled {
				d := executed - charged
				charged = executed
				if !s.spendFuel(d) {
					return newTrap(TrapOutOfFuel)
				}
			}
			ti := uint32(in.a)
			elemIdx := AsU32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if inst.table == nil || int(elemIdx) >= inst.table.Len() {
				return newTrap(TrapTableOutOfBounds)
			}
			callee := inst.table.elems[elemIdx]
			if callee == nil {
				return newTrap(TrapUninitializedElement)
			}
			if !callee.typ.Equal(inst.Module.Types[ti]) {
				return newTrap(TrapIndirectCallTypeMismatch)
			}
			np := callee.numParams
			nr := len(callee.typ.Results)
			base := len(stack) - np
			if err := inst.invokeNested(callee, stack[base:], stack[base:base+nr]); err != nil {
				return err
			}
			stack = stack[:base+nr]
		case wasm.OpDrop:
			stack = stack[:len(stack)-1]
		case wasm.OpSelect:
			c := stack[len(stack)-1]
			v2 := stack[len(stack)-2]
			v1 := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if c != 0 {
				stack = append(stack, v1)
			} else {
				stack = append(stack, v2)
			}
		case wasm.OpLocalGet:
			stack = append(stack, locals[in.a])
		case wasm.OpLocalSet:
			locals[in.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case wasm.OpLocalTee:
			locals[in.a] = stack[len(stack)-1]
		case wasm.OpGlobalGet:
			stack = append(stack, inst.globals[in.a].Val)
		case wasm.OpGlobalSet:
			inst.globals[in.a].Val = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case wasm.OpMemorySize:
			stack = append(stack, I32(int32(mem.Pages())))
		case wasm.OpMemoryGrow:
			delta := AsU32(stack[len(stack)-1])
			stack[len(stack)-1] = I32(mem.Grow(delta))
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			stack = append(stack, in.a)
		case opI32AddConst:
			// Fused "i32.const K; i32.add": two original instructions.
			executed++
			stack[len(stack)-1] = I32(AsI32(stack[len(stack)-1]) + int32(uint32(in.a)))
		case opI64AddConst:
			executed++
			stack[len(stack)-1] = stack[len(stack)-1] + in.a
		case opLocalGetPair:
			// Fused "local.get i; local.get j".
			executed++
			stack = append(stack, locals[in.a>>32], locals[uint32(in.a)])
		case opLocalBinop:
			// Fused "local.get i; local.get j; <binop>": three originals.
			executed += 2
			v, err := binaryOp(wasm.Opcode(in.misc), locals[in.a>>32], locals[uint32(in.a)])
			if err != nil {
				return err
			}
			stack = append(stack, v)
		case wasm.OpMisc:
			var err error
			stack, err = inst.execMisc(in, stack, mem)
			if err != nil {
				return err
			}
		default:
			var err error
			stack, err = execNumericOrMem(in, stack, mem)
			if err != nil {
				return err
			}
		}
		pc++
	}
}

// callHost invokes a host function, containing panics as traps so a buggy
// host callback cannot take down the embedder (engines isolate host faults
// the same way).
func (inst *Instance) callHost(hf *HostFunc, args []Value) (res []Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Trap{Code: TrapHostError, Wrapped: fmt.Errorf("host function panicked: %v", r)}
		}
	}()
	ctx := &HostContext{Store: inst.store, Instance: inst, Memory: inst.mem}
	res, err = hf.Fn(ctx, args)
	if err != nil {
		switch err.(type) {
		case *Trap, *ExitError:
			return nil, err
		}
		return nil, &Trap{Code: TrapHostError, Wrapped: err}
	}
	canon32(res, hf.Type.Results)
	return res, nil
}

// invokeNested dispatches a call from inside the interpreter loop. args and
// res may be overlapping views of the caller's operand stack: wasm callees
// copy args into their own frame locals before writing res, and the host
// path buffers results before the copy.
func (inst *Instance) invokeNested(callee *function, args, res []Value) error {
	if callee.host != nil {
		out, err := inst.callHost(callee.host, args)
		if err != nil {
			return err
		}
		if len(out) != len(res) {
			return &Trap{Code: TrapHostError, Wrapped: fmt.Errorf("host function returned %d values, want %d", len(out), len(res))}
		}
		copy(res, out)
		return nil
	}
	s := inst.store
	s.depth++
	if s.depth > s.cfg.MaxCallDepth {
		s.depth--
		return newTrap(TrapCallStackExhausted)
	}
	err := callee.inst.run(callee, args, res)
	s.depth--
	if err != nil {
		return pushFrame(err, callee)
	}
	return nil
}

// adjustStack applies a branch's drop/keep fixup.
func adjustStack(stack []Value, dropKeep uint64) []Value {
	drop, keep := unpackDropKeep(dropKeep)
	if drop == 0 {
		return stack
	}
	n := len(stack)
	copy(stack[n-keep-drop:], stack[n-keep:])
	return stack[:n-drop]
}

func (inst *Instance) execMisc(in *instr, stack []Value, mem *Memory) ([]Value, error) {
	switch in.misc {
	case wasm.MiscMemoryCopy:
		n := AsU32(stack[len(stack)-1])
		src := AsU32(stack[len(stack)-2])
		dst := AsU32(stack[len(stack)-3])
		stack = stack[:len(stack)-3]
		if !mem.copyWithin(dst, src, n) {
			return nil, newTrap(TrapMemoryOutOfBounds)
		}
	case wasm.MiscMemoryFill:
		n := AsU32(stack[len(stack)-1])
		val := byte(stack[len(stack)-2])
		dst := AsU32(stack[len(stack)-3])
		stack = stack[:len(stack)-3]
		if !mem.fill(dst, val, n) {
			return nil, newTrap(TrapMemoryOutOfBounds)
		}
	default: // the eight saturating truncations
		stack[len(stack)-1] = truncSat(in.misc, stack[len(stack)-1])
	}
	return stack, nil
}

// truncSat is the saturating truncation with 0xFC sub-opcode misc applied to
// v, for both tiers.
func truncSat(misc uint32, v Value) Value {
	switch misc {
	case wasm.MiscI32TruncSatF32S:
		return I32(truncSatI32(float64(AsF32(v))))
	case wasm.MiscI32TruncSatF32U:
		return uint64(truncSatU32(float64(AsF32(v))))
	case wasm.MiscI32TruncSatF64S:
		return I32(truncSatI32(AsF64(v)))
	case wasm.MiscI32TruncSatF64U:
		return uint64(truncSatU32(AsF64(v)))
	case wasm.MiscI64TruncSatF32S:
		return I64(truncSatI64(float64(AsF32(v))))
	case wasm.MiscI64TruncSatF32U:
		return truncSatU64(float64(AsF32(v)))
	case wasm.MiscI64TruncSatF64S:
		return I64(truncSatI64(AsF64(v)))
	}
	return truncSatU64(AsF64(v)) // MiscI64TruncSatF64U
}

// Saturating truncation helpers.
func truncSatI32(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	if v <= math.MinInt32 {
		return math.MinInt32
	}
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

func truncSatU32(v float64) uint32 {
	if math.IsNaN(v) || v <= -1 {
		return 0
	}
	if v >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

func truncSatI64(v float64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	if v <= math.MinInt64 {
		return math.MinInt64
	}
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

func truncSatU64(v float64) uint64 {
	if math.IsNaN(v) || v <= -1 {
		return 0
	}
	if v >= math.MaxUint64 {
		return math.MaxUint64
	}
	return uint64(v)
}

// Trapping truncation helpers (the MVP trunc instructions).
func truncI32(v float64) (int32, error) {
	if math.IsNaN(v) {
		return 0, newTrap(TrapInvalidConversion)
	}
	t := math.Trunc(v)
	if t < math.MinInt32 || t > math.MaxInt32 {
		return 0, newTrap(TrapIntegerOverflow)
	}
	return int32(t), nil
}

func truncU32(v float64) (uint32, error) {
	if math.IsNaN(v) {
		return 0, newTrap(TrapInvalidConversion)
	}
	t := math.Trunc(v)
	if t <= -1 || t > math.MaxUint32 {
		return 0, newTrap(TrapIntegerOverflow)
	}
	return uint32(t), nil
}

func truncI64(v float64) (int64, error) {
	if math.IsNaN(v) {
		return 0, newTrap(TrapInvalidConversion)
	}
	t := math.Trunc(v)
	// Note: 2^63 is exactly representable; values >= 2^63 overflow, and
	// values < -2^63 overflow (but -2^63 itself is fine).
	if t < math.MinInt64 || t >= math.MaxInt64 {
		return 0, newTrap(TrapIntegerOverflow)
	}
	return int64(t), nil
}

func truncU64(v float64) (uint64, error) {
	if math.IsNaN(v) {
		return 0, newTrap(TrapInvalidConversion)
	}
	t := math.Trunc(v)
	if t <= -1 || t >= math.MaxUint64 {
		return 0, newTrap(TrapIntegerOverflow)
	}
	return uint64(t), nil
}

// fmin/fmax follow wasm semantics: NaN-propagating, -0 < +0.
func fmin64(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if math.Signbit(a) || math.Signbit(b) {
			return math.Copysign(0, -1)
		}
		return 0
	}
	return math.Min(a, b)
}

func fmax64(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if !math.Signbit(a) || !math.Signbit(b) {
			return 0
		}
		return math.Copysign(0, -1)
	}
	return math.Max(a, b)
}

func boolVal(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// execNumericOrMem executes all fixed-signature instructions.
func execNumericOrMem(in *instr, stack []Value, mem *Memory) ([]Value, error) {
	op := in.op
	n := len(stack)
	switch op {
	// Loads.
	case wasm.OpI32Load, wasm.OpI64Load, wasm.OpF32Load, wasm.OpF64Load,
		wasm.OpI32Load8U, wasm.OpI32Load16U, wasm.OpI64Load8U, wasm.OpI64Load16U, wasm.OpI64Load32U,
		wasm.OpI32Load8S, wasm.OpI32Load16S, wasm.OpI64Load8S, wasm.OpI64Load16S, wasm.OpI64Load32S:
		v, ok := mem.load(AsU32(stack[n-1]), uint32(in.a), int(in.misc))
		if !ok {
			return nil, newTrap(TrapMemoryOutOfBounds)
		}
		stack[n-1] = extendLoad(op, v)
		return stack, nil
	// Stores.
	case wasm.OpI32Store, wasm.OpI64Store, wasm.OpF32Store, wasm.OpF64Store,
		wasm.OpI32Store8, wasm.OpI32Store16, wasm.OpI64Store8, wasm.OpI64Store16, wasm.OpI64Store32:
		val := stack[n-1]
		addr := AsU32(stack[n-2])
		if !mem.storeAt(uint64(addr)+uint64(uint32(in.a)), int(in.misc), val) {
			return nil, newTrap(TrapMemoryOutOfBounds)
		}
		return stack[:n-2], nil
	}

	// Unary operators.
	if v, err, ok := unaryOp(op, stack[n-1]); ok {
		if err != nil {
			return nil, err
		}
		stack[n-1] = v
		return stack, nil
	}

	// Binary operators.
	rhs, lhs := stack[n-1], stack[n-2]
	v, err := binaryOp(op, lhs, rhs)
	if err != nil {
		return nil, err
	}
	stack[n-2] = v
	return stack[:n-1], nil
}

// extendLoad is a load's value from the bytes Memory.load fetched:
// sign-extended for the five signed loads, as fetched for the rest.
func extendLoad(op wasm.Opcode, raw uint64) Value {
	switch op {
	case wasm.OpI32Load8S:
		return I32(int32(int8(raw)))
	case wasm.OpI32Load16S:
		return I32(int32(int16(raw)))
	case wasm.OpI64Load8S:
		return I64(int64(int8(raw)))
	case wasm.OpI64Load16S:
		return I64(int64(int16(raw)))
	case wasm.OpI64Load32S:
		return I64(int64(int32(raw)))
	}
	return raw
}

// unaryOp computes a unary instruction, or reports ok=false when op is not
// unary.
func unaryOp(op wasm.Opcode, v Value) (Value, error, bool) {
	switch op {
	case wasm.OpI32Eqz:
		return boolVal(AsU32(v) == 0), nil, true
	case wasm.OpI64Eqz:
		return boolVal(v == 0), nil, true
	case wasm.OpI32Clz:
		return I32(int32(bits.LeadingZeros32(AsU32(v)))), nil, true
	case wasm.OpI32Ctz:
		return I32(int32(bits.TrailingZeros32(AsU32(v)))), nil, true
	case wasm.OpI32Popcnt:
		return I32(int32(bits.OnesCount32(AsU32(v)))), nil, true
	case wasm.OpI64Clz:
		return I64(int64(bits.LeadingZeros64(v))), nil, true
	case wasm.OpI64Ctz:
		return I64(int64(bits.TrailingZeros64(v))), nil, true
	case wasm.OpI64Popcnt:
		return I64(int64(bits.OnesCount64(v))), nil, true
	case wasm.OpF32Abs:
		return F32(float32(math.Abs(float64(AsF32(v))))), nil, true
	case wasm.OpF32Neg:
		return F32(-AsF32(v)), nil, true
	case wasm.OpF32Ceil:
		return F32(float32(math.Ceil(float64(AsF32(v))))), nil, true
	case wasm.OpF32Floor:
		return F32(float32(math.Floor(float64(AsF32(v))))), nil, true
	case wasm.OpF32Trunc:
		return F32(float32(math.Trunc(float64(AsF32(v))))), nil, true
	case wasm.OpF32Nearest:
		return F32(float32(math.RoundToEven(float64(AsF32(v))))), nil, true
	case wasm.OpF32Sqrt:
		return F32(float32(math.Sqrt(float64(AsF32(v))))), nil, true
	case wasm.OpF64Abs:
		return F64(math.Abs(AsF64(v))), nil, true
	case wasm.OpF64Neg:
		return F64(-AsF64(v)), nil, true
	case wasm.OpF64Ceil:
		return F64(math.Ceil(AsF64(v))), nil, true
	case wasm.OpF64Floor:
		return F64(math.Floor(AsF64(v))), nil, true
	case wasm.OpF64Trunc:
		return F64(math.Trunc(AsF64(v))), nil, true
	case wasm.OpF64Nearest:
		return F64(math.RoundToEven(AsF64(v))), nil, true
	case wasm.OpF64Sqrt:
		return F64(math.Sqrt(AsF64(v))), nil, true
	case wasm.OpI32WrapI64:
		return I32(int32(v)), nil, true
	case wasm.OpI32TruncF32S:
		r, err := truncI32(float64(AsF32(v)))
		return I32(r), err, true
	case wasm.OpI32TruncF32U:
		r, err := truncU32(float64(AsF32(v)))
		return uint64(r), err, true
	case wasm.OpI32TruncF64S:
		r, err := truncI32(AsF64(v))
		return I32(r), err, true
	case wasm.OpI32TruncF64U:
		r, err := truncU32(AsF64(v))
		return uint64(r), err, true
	case wasm.OpI64ExtendI32S:
		return I64(int64(AsI32(v))), nil, true
	case wasm.OpI64ExtendI32U:
		return uint64(AsU32(v)), nil, true
	case wasm.OpI64TruncF32S:
		r, err := truncI64(float64(AsF32(v)))
		return I64(r), err, true
	case wasm.OpI64TruncF32U:
		r, err := truncU64(float64(AsF32(v)))
		return r, err, true
	case wasm.OpI64TruncF64S:
		r, err := truncI64(AsF64(v))
		return I64(r), err, true
	case wasm.OpI64TruncF64U:
		r, err := truncU64(AsF64(v))
		return r, err, true
	case wasm.OpF32ConvertI32S:
		return F32(float32(AsI32(v))), nil, true
	case wasm.OpF32ConvertI32U:
		return F32(float32(AsU32(v))), nil, true
	case wasm.OpF32ConvertI64S:
		return F32(float32(AsI64(v))), nil, true
	case wasm.OpF32ConvertI64U:
		return F32(float32(v)), nil, true
	case wasm.OpF32DemoteF64:
		return F32(float32(AsF64(v))), nil, true
	case wasm.OpF64ConvertI32S:
		return F64(float64(AsI32(v))), nil, true
	case wasm.OpF64ConvertI32U:
		return F64(float64(AsU32(v))), nil, true
	case wasm.OpF64ConvertI64S:
		return F64(float64(AsI64(v))), nil, true
	case wasm.OpF64ConvertI64U:
		return F64(float64(v)), nil, true
	case wasm.OpF64PromoteF32:
		return F64(float64(AsF32(v))), nil, true
	case wasm.OpI32ReinterpretF32, wasm.OpF32ReinterpretI32:
		return v & math.MaxUint32, nil, true
	case wasm.OpI64ReinterpretF64, wasm.OpF64ReinterpretI64:
		return v, nil, true
	case wasm.OpI32Extend8S:
		return I32(int32(int8(v))), nil, true
	case wasm.OpI32Extend16S:
		return I32(int32(int16(v))), nil, true
	case wasm.OpI64Extend8S:
		return I64(int64(int8(v))), nil, true
	case wasm.OpI64Extend16S:
		return I64(int64(int16(v))), nil, true
	case wasm.OpI64Extend32S:
		return I64(int64(int32(v))), nil, true
	}
	return 0, nil, false
}

// binaryOp computes a binary instruction over raw values.
func binaryOp(op wasm.Opcode, lhs, rhs Value) (Value, error) {
	switch op {
	// i32 comparisons.
	case wasm.OpI32Eq:
		return boolVal(AsU32(lhs) == AsU32(rhs)), nil
	case wasm.OpI32Ne:
		return boolVal(AsU32(lhs) != AsU32(rhs)), nil
	case wasm.OpI32LtS:
		return boolVal(AsI32(lhs) < AsI32(rhs)), nil
	case wasm.OpI32LtU:
		return boolVal(AsU32(lhs) < AsU32(rhs)), nil
	case wasm.OpI32GtS:
		return boolVal(AsI32(lhs) > AsI32(rhs)), nil
	case wasm.OpI32GtU:
		return boolVal(AsU32(lhs) > AsU32(rhs)), nil
	case wasm.OpI32LeS:
		return boolVal(AsI32(lhs) <= AsI32(rhs)), nil
	case wasm.OpI32LeU:
		return boolVal(AsU32(lhs) <= AsU32(rhs)), nil
	case wasm.OpI32GeS:
		return boolVal(AsI32(lhs) >= AsI32(rhs)), nil
	case wasm.OpI32GeU:
		return boolVal(AsU32(lhs) >= AsU32(rhs)), nil
	// i64 comparisons.
	case wasm.OpI64Eq:
		return boolVal(lhs == rhs), nil
	case wasm.OpI64Ne:
		return boolVal(lhs != rhs), nil
	case wasm.OpI64LtS:
		return boolVal(AsI64(lhs) < AsI64(rhs)), nil
	case wasm.OpI64LtU:
		return boolVal(lhs < rhs), nil
	case wasm.OpI64GtS:
		return boolVal(AsI64(lhs) > AsI64(rhs)), nil
	case wasm.OpI64GtU:
		return boolVal(lhs > rhs), nil
	case wasm.OpI64LeS:
		return boolVal(AsI64(lhs) <= AsI64(rhs)), nil
	case wasm.OpI64LeU:
		return boolVal(lhs <= rhs), nil
	case wasm.OpI64GeS:
		return boolVal(AsI64(lhs) >= AsI64(rhs)), nil
	case wasm.OpI64GeU:
		return boolVal(lhs >= rhs), nil
	// Float comparisons.
	case wasm.OpF32Eq:
		return boolVal(AsF32(lhs) == AsF32(rhs)), nil
	case wasm.OpF32Ne:
		return boolVal(AsF32(lhs) != AsF32(rhs)), nil
	case wasm.OpF32Lt:
		return boolVal(AsF32(lhs) < AsF32(rhs)), nil
	case wasm.OpF32Gt:
		return boolVal(AsF32(lhs) > AsF32(rhs)), nil
	case wasm.OpF32Le:
		return boolVal(AsF32(lhs) <= AsF32(rhs)), nil
	case wasm.OpF32Ge:
		return boolVal(AsF32(lhs) >= AsF32(rhs)), nil
	case wasm.OpF64Eq:
		return boolVal(AsF64(lhs) == AsF64(rhs)), nil
	case wasm.OpF64Ne:
		return boolVal(AsF64(lhs) != AsF64(rhs)), nil
	case wasm.OpF64Lt:
		return boolVal(AsF64(lhs) < AsF64(rhs)), nil
	case wasm.OpF64Gt:
		return boolVal(AsF64(lhs) > AsF64(rhs)), nil
	case wasm.OpF64Le:
		return boolVal(AsF64(lhs) <= AsF64(rhs)), nil
	case wasm.OpF64Ge:
		return boolVal(AsF64(lhs) >= AsF64(rhs)), nil
	// i32 arithmetic.
	case wasm.OpI32Add:
		return I32(AsI32(lhs) + AsI32(rhs)), nil
	case wasm.OpI32Sub:
		return I32(AsI32(lhs) - AsI32(rhs)), nil
	case wasm.OpI32Mul:
		return I32(AsI32(lhs) * AsI32(rhs)), nil
	case wasm.OpI32DivS:
		l, r := AsI32(lhs), AsI32(rhs)
		if r == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		if l == math.MinInt32 && r == -1 {
			return 0, newTrap(TrapIntegerOverflow)
		}
		return I32(l / r), nil
	case wasm.OpI32DivU:
		l, r := AsU32(lhs), AsU32(rhs)
		if r == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		return uint64(l / r), nil
	case wasm.OpI32RemS:
		l, r := AsI32(lhs), AsI32(rhs)
		if r == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		if l == math.MinInt32 && r == -1 {
			return 0, nil
		}
		return I32(l % r), nil
	case wasm.OpI32RemU:
		l, r := AsU32(lhs), AsU32(rhs)
		if r == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		return uint64(l % r), nil
	case wasm.OpI32And:
		return (lhs & rhs) & math.MaxUint32, nil
	case wasm.OpI32Or:
		return (lhs | rhs) & math.MaxUint32, nil
	case wasm.OpI32Xor:
		return (lhs ^ rhs) & math.MaxUint32, nil
	case wasm.OpI32Shl:
		return I32(AsI32(lhs) << (AsU32(rhs) & 31)), nil
	case wasm.OpI32ShrS:
		return I32(AsI32(lhs) >> (AsU32(rhs) & 31)), nil
	case wasm.OpI32ShrU:
		return uint64(AsU32(lhs) >> (AsU32(rhs) & 31)), nil
	case wasm.OpI32Rotl:
		return uint64(bits.RotateLeft32(AsU32(lhs), int(AsU32(rhs)&31))), nil
	case wasm.OpI32Rotr:
		return uint64(bits.RotateLeft32(AsU32(lhs), -int(AsU32(rhs)&31))), nil
	// i64 arithmetic.
	case wasm.OpI64Add:
		return lhs + rhs, nil
	case wasm.OpI64Sub:
		return lhs - rhs, nil
	case wasm.OpI64Mul:
		return lhs * rhs, nil
	case wasm.OpI64DivS:
		l, r := AsI64(lhs), AsI64(rhs)
		if r == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		if l == math.MinInt64 && r == -1 {
			return 0, newTrap(TrapIntegerOverflow)
		}
		return I64(l / r), nil
	case wasm.OpI64DivU:
		if rhs == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		return lhs / rhs, nil
	case wasm.OpI64RemS:
		l, r := AsI64(lhs), AsI64(rhs)
		if r == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		if l == math.MinInt64 && r == -1 {
			return 0, nil
		}
		return I64(l % r), nil
	case wasm.OpI64RemU:
		if rhs == 0 {
			return 0, newTrap(TrapIntegerDivideByZero)
		}
		return lhs % rhs, nil
	case wasm.OpI64And:
		return lhs & rhs, nil
	case wasm.OpI64Or:
		return lhs | rhs, nil
	case wasm.OpI64Xor:
		return lhs ^ rhs, nil
	case wasm.OpI64Shl:
		return lhs << (rhs & 63), nil
	case wasm.OpI64ShrS:
		return I64(AsI64(lhs) >> (rhs & 63)), nil
	case wasm.OpI64ShrU:
		return lhs >> (rhs & 63), nil
	case wasm.OpI64Rotl:
		return bits.RotateLeft64(lhs, int(rhs&63)), nil
	case wasm.OpI64Rotr:
		return bits.RotateLeft64(lhs, -int(rhs&63)), nil
	// f32 arithmetic.
	case wasm.OpF32Add:
		return F32(AsF32(lhs) + AsF32(rhs)), nil
	case wasm.OpF32Sub:
		return F32(AsF32(lhs) - AsF32(rhs)), nil
	case wasm.OpF32Mul:
		return F32(AsF32(lhs) * AsF32(rhs)), nil
	case wasm.OpF32Div:
		return F32(AsF32(lhs) / AsF32(rhs)), nil
	case wasm.OpF32Min:
		return F32(float32(fmin64(float64(AsF32(lhs)), float64(AsF32(rhs))))), nil
	case wasm.OpF32Max:
		return F32(float32(fmax64(float64(AsF32(lhs)), float64(AsF32(rhs))))), nil
	case wasm.OpF32Copysign:
		return F32(float32(math.Copysign(float64(AsF32(lhs)), float64(AsF32(rhs))))), nil
	// f64 arithmetic.
	case wasm.OpF64Add:
		return F64(AsF64(lhs) + AsF64(rhs)), nil
	case wasm.OpF64Sub:
		return F64(AsF64(lhs) - AsF64(rhs)), nil
	case wasm.OpF64Mul:
		return F64(AsF64(lhs) * AsF64(rhs)), nil
	case wasm.OpF64Div:
		return F64(AsF64(lhs) / AsF64(rhs)), nil
	case wasm.OpF64Min:
		return F64(fmin64(AsF64(lhs), AsF64(rhs))), nil
	case wasm.OpF64Max:
		return F64(fmax64(AsF64(lhs), AsF64(rhs))), nil
	case wasm.OpF64Copysign:
		return F64(math.Copysign(AsF64(lhs), AsF64(rhs))), nil
	}
	panic("exec: unhandled opcode " + wasm.OpcodeName(op))
}
