package exec

// Tier-1 execution: a direct-threaded, register-form lowering of the
// compiler's plain instruction stream (tier 0's superinstructions are tier
// 0's alone).
//
// Each instruction that does work becomes one Go closure with its
// immediates, operand slots, and successor indices captured at lowering
// time, so the hot loop is just `pc = ops[pc](fr)`: no central switch, no
// per-step operand decoding, and no operand-stack pointer — the compiler
// records every instruction's entry height, so every stack position has a
// fixed register slot. A local.get or a constant is folded into whatever
// consumes it (tier1_fuse.go), and structure markers (block/loop/end) and
// drops vanish from the instruction stream entirely; their instruction
// counts go to the closures around them, so Store.InstructionCount and the
// block-granularity fuel schedule are bit-identical to tier 0.
//
// Frames live in one contiguous per-store register stack: a call carves the
// callee's window so its parameter slots alias the caller's argument slots,
// making wasm->wasm calls zero-copy in both directions (the return closure
// parks results in slots [0,nr), which are the caller's argument slots). The
// stack is only reallocated while empty, so live frames never dangle; a
// mid-stack shortfall records the wanted size and falls back to tier 0 for
// that one call. A store's first stack is sized from the lowered artifact
// (Tier1Code.stack), not from a constant.
//
// A window ends in its function's constant region, filled on entry, so
// every operand a closure names is a register slot: a local, a stack value
// or a constant. A callee's window starts inside its caller's operand stack
// and can cover the caller's constants, so a fast call writes them back
// when the callee returns.

// Sentinel pc values returned by closures to leave the dispatch loop.
const (
	t1Return  = -1
	t1Trapped = -2 // trap or host error parked in fr.err
)

// t1op executes one lowered instruction and returns the next instruction
// index (or a sentinel). Closures capture only static per-instruction data,
// never per-instance state, so one artifact serves every instance.
type t1op func(fr *t1frame) int

// t1func is one function body lowered to tier 1.
type t1func struct {
	ops    []t1op
	np     int     // parameters
	nl     int     // parameters + declared locals
	nr     int     // results
	slots  int     // nl + operand-stack bound + len(consts): the register window
	consts []Value // the constant operands, one per distinct value: the window's last slots
}

// fillConsts writes f's constants into the last slots of regs, a register
// window of f.
func (f *t1func) fillConsts(regs []Value) {
	kb := len(regs) - len(f.consts)
	for i, k := range f.consts {
		regs[kb+i] = k
	}
}

// Tier1Code is the per-module tier-1 artifact published on ModuleCode.
// A nil entry means that function could not be lowered (a branch or a
// memory access the lowering cannot express) and permanently stays at tier 0.
type Tier1Code struct {
	funcs   []*t1func
	bytes   int64
	lowered int
	// stack is the first register-stack size, in slots, of a store whose
	// top-level call enters this module: the sum of the lowered frame
	// windows, capped at t1StackCap. Callee windows overlap their
	// caller's argument slots, so the sum bounds any call chain that enters
	// each function at most once; only recursion, another module's callee
	// or a re-entering host function can outgrow it.
	stack int
}

// Bytes is the accounted resident size of the artifact, what the module
// cache's LRU bound and the per-node shared-artifact accounting charge.
func (tc *Tier1Code) Bytes() int64 { return tc.bytes }

// Lowered reports how many functions were actually lowered.
func (tc *Tier1Code) Lowered() int { return tc.lowered }

// t1frame is the mutable state threaded through every closure: the frame's
// register window plus the same per-frame instruction/fuel accounting the
// tier-0 loop keeps in locals. Frames are pooled on the store.
type t1frame struct {
	regs []Value // [0,nl): locals; then the operand-stack registers; then the constants
	base int     // offset of regs within store.t1stack
	inst *Instance
	mem  *Memory
	s    *Store
	// executed/charged mirror tier 0's per-frame counters exactly:
	// executed counts retired original instructions (markers included via
	// folded credits), charged tracks the portion already drawn as fuel.
	executed uint64
	charged  uint64
	err      error
}

// charge retires n originals and then, at a control transfer, draws the
// current basic block's instruction count from the fuel tank, exactly like
// the tier-0 charge points. On exhaustion it parks TrapOutOfFuel and reports
// false. Kept tiny so it inlines into the branch closures.
func (fr *t1frame) charge(n uint64) bool {
	fr.executed += n
	s := fr.s
	if !s.fueled {
		return true
	}
	d := fr.executed - fr.charged
	fr.charged = fr.executed
	if d > s.fuelLeft {
		s.fuelLeft = 0
		fr.err = newTrap(TrapOutOfFuel)
		return false
	}
	s.fuelLeft -= d
	return true
}

// trapAfter counts own retired originals, the trapping one included, and
// parks the trap: how a specialized closure raises what binaryOp would.
func (fr *t1frame) trapAfter(own uint64, code TrapCode) int {
	fr.executed += own
	fr.err = newTrap(code)
	return t1Trapped
}

// t1StackCap caps Tier1Code.stack, in slots (here 128 KiB): what every
// store used to start with. A store that outgrows its first stack has met
// one of the chains the static sum cannot bound, so its next empty-stack
// grow goes at least this far (t1Shortfall) rather than doubling a few
// hundred bytes once per call.
const t1StackCap = 1 << 14

// t1Shortfall records that a frame needing the stack to hold need slots did
// not fit mid-stack; the call at hand runs at tier 0.
func (s *Store) t1Shortfall(need int) {
	s.t1want = max(s.t1want, need, t1StackCap)
}

func (s *Store) getT1Frame() *t1frame {
	if n := len(s.t1free); n > 0 {
		fr := s.t1free[n-1]
		s.t1free = s.t1free[:n-1]
		return fr
	}
	return &t1frame{}
}

func (s *Store) putT1Frame(fr *t1frame) {
	fr.regs = nil
	fr.inst = nil
	fr.mem = nil
	fr.err = nil
	s.t1free = append(s.t1free, fr)
}

// t1body resolves f's tier-1 body, or nil when f is a host function, its
// module has not tiered up, or this particular function was not lowerable.
func (f *function) t1body() *t1func {
	mc := f.mc
	if mc == nil {
		return nil
	}
	tc := mc.tier1.Load()
	if tc == nil {
		return nil
	}
	return tc.funcs[f.mcIdx]
}

// t1Call runs f's body in tc as a top-level call (from Instance.invoke,
// which has already done the depth accounting). Returns ran=false when f was
// not lowered, or — with the wanted stack size recorded for the next
// empty-stack grow — when the register stack cannot host the frame; the
// caller then runs tier 0.
func (s *Store) t1Call(f *function, tc *Tier1Code, args, res []Value) (ran bool, err error) {
	t1 := tc.funcs[f.mcIdx]
	if t1 == nil {
		return false, nil
	}
	base := s.t1sp
	need := base + t1.slots
	if base == 0 {
		if w := len(s.t1stack); need > w || s.t1want > w {
			s.t1stack = make([]Value, max(2*w, tc.stack, need, s.t1want))
			s.t1want = 0
		}
	} else if need > len(s.t1stack) {
		s.t1Shortfall(need)
		return false, nil
	}
	fr := s.getT1Frame()
	fr.s = s
	fr.inst = f.inst
	fr.mem = f.inst.mem
	fr.base = base
	regs := s.t1stack[base:need]
	fr.regs = regs
	n := copy(regs[:t1.nl], args)
	for i := n; i < t1.nl; i++ {
		regs[i] = 0
	}
	t1.fillConsts(regs)
	s.t1sp = need
	err = s.execT1(fr, t1)
	s.t1sp = base
	s.putT1Frame(fr)
	if err == nil {
		copy(res, regs[:t1.nr])
	}
	return true, err
}

// execT1 drives one frame through the dispatch loop, with the same entry
// fuel check and exit accounting flush as the tier-0 run.
func (s *Store) execT1(fr *t1frame, t1 *t1func) error {
	if s.fueled && s.fuelLeft == 0 {
		return newTrap(TrapOutOfFuel)
	}
	fr.executed = 0
	fr.charged = 0
	ops := t1.ops
	pc := 0
	for pc >= 0 {
		pc = ops[pc](fr)
	}
	s.instrCount += fr.executed
	if s.fueled {
		if d := fr.executed - fr.charged; d > s.fuelLeft {
			s.fuelLeft = 0
		} else {
			s.fuelLeft -= d
		}
	}
	if pc == t1Trapped {
		err := fr.err
		fr.err = nil
		return err
	}
	return nil
}

// callFunc dispatches a nested call from inside a tier-1 frame of self. The
// callee's arguments sit at fr.regs[aslot:aslot+np] and its results land in
// fr.regs[aslot:aslot+nr], exactly the overlap contract of the tier-0 call
// sites. Tier-1 callees take the zero-copy fast path; host functions,
// un-lowered callees, and register-stack shortfalls all route through the
// shared invokeNested, which preserves tier-0 semantics bit for bit.
func (fr *t1frame) callFunc(self *t1func, callee *function, aslot int) error {
	if callee.host == nil {
		if t1 := callee.t1body(); t1 != nil {
			if done, err := fr.s.t1FastCall(fr, self, callee, t1, aslot); done {
				return err
			}
		}
	}
	np := callee.numParams
	nr := len(callee.typ.Results)
	return fr.inst.invokeNested(callee, fr.regs[aslot:aslot+np], fr.regs[aslot:aslot+nr])
}

// t1FastCall runs a tier-1 callee in place: its register window starts at
// the caller's first argument slot, so parameters and results are never
// copied. The store's stack pointer is raised over the callee's window for
// the duration so a host callback re-entering t1Call cannot overlap it; the
// caller's constants, which the callee's window or a frame above it may
// have covered, are written back on return. self is the caller's body.
// done=false means the stack could not host the callee here (the caller
// falls back to invokeNested).
func (s *Store) t1FastCall(fr *t1frame, self *t1func, callee *function, t1 *t1func, aslot int) (done bool, err error) {
	cbase := fr.base + aslot
	need := cbase + t1.slots
	if need > len(s.t1stack) {
		s.t1Shortfall(need)
		return false, nil
	}
	s.depth++
	if s.depth > s.cfg.MaxCallDepth {
		s.depth--
		return true, newTrap(TrapCallStackExhausted)
	}
	savedSp := s.t1sp
	s.t1sp = need
	cfr := s.getT1Frame()
	cfr.s = s
	cfr.inst = callee.inst
	cfr.mem = callee.inst.mem
	cfr.base = cbase
	regs := s.t1stack[cbase:need]
	cfr.regs = regs
	for i := t1.np; i < t1.nl; i++ {
		regs[i] = 0
	}
	t1.fillConsts(regs)
	err = s.execT1(cfr, t1)
	s.putT1Frame(cfr)
	s.t1sp = savedSp
	s.depth--
	if err != nil {
		return true, pushFrame(err, callee)
	}
	self.fillConsts(fr.regs)
	return true, nil
}
