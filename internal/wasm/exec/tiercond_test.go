package exec

import (
	"encoding/binary"
	"math"
	"testing"

	"wasmcontainers/internal/wasm"
)

// The fused conditional shapes of tier 1 — a comparison or an eqz branched on
// by an if or a br_if, in every operand form the lowering tells apart — run
// differentially against tier 0 here and in FuzzTierDiffConditional.

// condForm is where a comparison's operands come from.
type condForm int

const (
	formStack      condForm = iota // both on the stack: [<cmp>][if]
	formStackLocal                 // stack against a local: [local.get][<cmp>][if]
	formLocals                     // two locals: [local.get; local.get; <cmp>][if]
	formStackConst                 // stack against a constant: [const][<cmp>][if]
	formLocalConst                 // a local against a constant: [local.get][const][<cmp>][if]
	numForms
)

var formNames = [numForms]string{"stack", "stack-local", "locals", "stack-const", "local-const"}

// condArms is what branches on the condition (or, for armsValue, the
// unfused form the fused ones must agree with).
type condArms int

const (
	armsThen   condArms = iota // if ... end
	armsElse                   // if ... br 0 else ... end
	armsResult                 // if (result i32) ... else ... end
	armsBrIf                   // block (result i32) 5 1 ... br_if 0 ... end: a taken branch moves the 1 down
	armsValue                  // no branch: the condition is added as a value
	numArms
)

var armNames = [numArms]string{"then", "else", "result", "br_if", "value"}

// condShape is one conditional under test. k is the constant right operand
// of the const forms.
type condShape struct {
	op   wasm.Opcode // a comparison, i32.eqz or i64.eqz
	form condForm
	arms condArms
	k    Value
}

// condOperand is the value type a conditional's operands have.
func condOperand(op wasm.Opcode) wasm.ValueType {
	switch {
	case op >= wasm.OpI32Eqz && op <= wasm.OpI32GeU:
		return i32
	case op >= wasm.OpI64Eqz && op <= wasm.OpI64GeU:
		return i64t
	case op >= wasm.OpF32Eq && op <= wasm.OpF32Ge:
		return f32t
	}
	return f64t
}

func isEqz(op wasm.Opcode) bool { return op == wasm.OpI32Eqz || op == wasm.OpI64Eqz }

// condForms lists the operand forms op can take: eqz has one operand, and a
// constant operand is only fused for integers.
func condForms(op wasm.Opcode) []condForm {
	switch vt := condOperand(op); {
	case isEqz(op):
		return []condForm{formStack}
	case vt == f32t || vt == f64t:
		return []condForm{formStack, formStackLocal, formLocals}
	}
	return []condForm{formStack, formStackLocal, formLocals, formStackConst, formLocalConst}
}

// condModule builds f(a, b) -> i32 over the operand type: three rounds of a
// loop, each running the shape once and adding 1 to the result when the
// condition holds and 16 when it does not (armsValue adds the condition). The loop's br_if and the br in
// the else layout's then-arm are the fuel charge points around the shape.
func condModule(t testing.TB, c condShape) *wasm.Module {
	vt := condOperand(c.op)
	const tmp, acc, n = 2, 3, 4
	b := new(wasm.BodyBuilder)
	konst := func() {
		if vt == i32 {
			b.I32Const(AsI32(c.k))
		} else {
			b.I64Const(AsI64(c.k))
		}
	}
	addAcc := func(v int32) {
		b.OpU32(wasm.OpLocalGet, acc).I32Const(v).Op(wasm.OpI32Add).OpU32(wasm.OpLocalSet, acc)
	}
	b.Block(wasm.OpLoop, wasm.BlockTypeEmpty)
	if c.arms == armsBrIf {
		b.Block(wasm.OpBlock, wasm.BlockTypeOf(i32)).I32Const(5).I32Const(1)
	}
	switch c.form {
	case formStack:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalTee, tmp)
		if !isEqz(c.op) {
			b.OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpLocalTee, tmp)
		}
	case formStackLocal:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalTee, tmp).OpU32(wasm.OpLocalGet, 1)
	case formLocals:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1)
	case formStackConst:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalTee, tmp)
		konst()
	case formLocalConst:
		b.OpU32(wasm.OpLocalGet, 0)
		konst()
	}
	b.Op(c.op)
	switch c.arms {
	case armsThen:
		b.Block(wasm.OpIf, wasm.BlockTypeEmpty)
		addAcc(1)
		b.End()
	case armsElse:
		b.Block(wasm.OpIf, wasm.BlockTypeEmpty)
		addAcc(1)
		b.OpU32(wasm.OpBr, 0)
		b.Op(wasm.OpElse)
		addAcc(16)
		b.End()
	case armsResult:
		b.Block(wasm.OpIf, wasm.BlockTypeOf(i32)).I32Const(1).Op(wasm.OpElse).I32Const(16).End()
		b.OpU32(wasm.OpLocalGet, acc).Op(wasm.OpI32Add).OpU32(wasm.OpLocalSet, acc)
	case armsBrIf:
		b.OpU32(wasm.OpBrIf, 0).Op(wasm.OpDrop).Op(wasm.OpDrop).I32Const(16).End()
		b.OpU32(wasm.OpLocalGet, acc).Op(wasm.OpI32Add).OpU32(wasm.OpLocalSet, acc)
	case armsValue:
		b.OpU32(wasm.OpLocalGet, acc).Op(wasm.OpI32Add).OpU32(wasm.OpLocalSet, acc)
	}
	b.OpU32(wasm.OpLocalGet, n).I32Const(1).Op(wasm.OpI32Add).OpU32(wasm.OpLocalTee, n)
	b.I32Const(3).Op(wasm.OpI32LtU).OpU32(wasm.OpBrIf, 0)
	b.End()
	b.OpU32(wasm.OpLocalGet, acc).End()
	return buildModule(t, singleFunc([]wasm.ValueType{vt, vt}, []wasm.ValueType{i32},
		[]wasm.ValueType{vt, i32, i32}, b))
}

// condOps is every comparison plus the two eqz.
func condOps() []wasm.Opcode {
	var ops []wasm.Opcode
	for op := wasm.OpI32Eqz; op <= wasm.OpF64Ge; op++ {
		ops = append(ops, op)
	}
	return ops
}

// condValues are the operand corners per type: zero, one, all-ones, the
// signed extremes and, for i32, a register with bits set above the i32;
// NaN, signed zeros, infinities and a denormal for the floats.
func condValues(vt wasm.ValueType) []Value {
	switch vt {
	case i32:
		return []Value{0, 1, 7, I32(-1), I32(math.MinInt32), I32(math.MaxInt32), 0xdeadbeef_00000007}
	case i64t:
		return []Value{0, 1, I64(-1), I64(math.MinInt64), I64(math.MaxInt64), 1 << 32, math.MaxUint32}
	case f32t:
		return []Value{F32(0), F32(float32(math.Copysign(0, -1))), F32(1.5), F32(-1.5),
			F32(float32(math.NaN())), F32(float32(math.Inf(1))), F32(float32(math.Inf(-1))), 1}
	}
	return []Value{F64(0), F64(math.Copysign(0, -1)), F64(1.5), F64(-1.5),
		F64(math.NaN()), F64(math.Inf(1)), F64(math.Inf(-1)), 1}
}

// setFuel refills both stores of a fueled pair to exactly f.
func (p *tierPair) setFuel(f uint64) {
	p.s0.fuelLeft, p.s1.fuelLeft = f, f
}

// checkCond runs one shape over every operand pair at both tiers, then sweeps
// the fuel through every budget up to one past what a call needs, for a pair
// that takes the condition and one that does not, so exhaustion lands before,
// on and after the fused op of each round.
func checkCond(t *testing.T, c condShape, vals []Value) {
	m := condModule(t, c)
	p := newTierPair(t, m, Config{}, nil)
	byArm := map[Value][2]Value{}
	for _, a := range vals {
		for _, bv := range vals {
			res, _ := p.call("f", a, bv)
			byArm[res[0]] = [2]Value{a, bv}
		}
	}
	fp := newTierPair(t, m, Config{Fuel: 1}, nil)
	for _, args := range byArm {
		before := fp.s0.InstructionCount()
		fp.setFuel(1 << 20)
		fp.call("f", args[0], args[1])
		need := fp.s0.InstructionCount() - before
		for f := uint64(1); f <= need+1; f++ {
			fp.setFuel(f)
			fp.call("f", args[0], args[1])
		}
	}
}

func TestTierDiffConditionalSweep(t *testing.T) {
	for _, op := range condOps() {
		vt := condOperand(op)
		vals := condValues(vt)
		for _, form := range condForms(op) {
			ks := []Value{0}
			if form == formStackConst || form == formLocalConst {
				ks = vals
			}
			for arms := condArms(0); arms < numArms; arms++ {
				name := wasm.OpcodeName(op) + "/" + formNames[form] + "/" + armNames[arms]
				t.Run(name, func(t *testing.T) {
					for _, k := range ks {
						checkCond(t, condShape{op: op, form: form, arms: arms, k: k}, vals)
					}
				})
			}
		}
	}
}

// FuzzTierDiffConditional: the input picks a conditional shape, its operands
// and a fuel budget (0 runs unfueled) and checks both tiers agree.
func FuzzTierDiffConditional(f *testing.F) {
	ops := condOps()
	seed := func(op wasm.Opcode, form condForm, arms condArms, a, b Value, fuel uint16) []byte {
		in := []byte{byte(op - ops[0]), byte(form), byte(arms)}
		in = binary.LittleEndian.AppendUint64(in, a)
		in = binary.LittleEndian.AppendUint64(in, b)
		return binary.LittleEndian.AppendUint16(in, fuel)
	}
	nan64, negZero := F64(math.NaN()), F64(math.Copysign(0, -1))
	for _, s := range [][]byte{
		seed(wasm.OpI32LtS, formStackLocal, armsElse, I32(math.MinInt32), I32(-1), 0),
		seed(wasm.OpI32GtU, formLocalConst, armsResult, I32(-1), 0, 7),
		seed(wasm.OpI32Eqz, formStack, armsBrIf, 0xdeadbeef_00000000, 0, 0),
		seed(wasm.OpI64Eqz, formStack, armsThen, 1<<32, 0, 11),
		seed(wasm.OpI64GeS, formStackConst, armsBrIf, I64(math.MinInt64), I64(-1), 0),
		seed(wasm.OpI64LeU, formLocals, armsElse, math.MaxUint32, 1<<32, 23),
		seed(wasm.OpF32Lt, formStack, armsResult, F32(float32(math.NaN())), F32(1.5), 0),
		seed(wasm.OpF64Ge, formStackLocal, armsThen, nan64, nan64, 0),
		seed(wasm.OpF64Eq, formLocals, armsBrIf, negZero, F64(0), 5),
		seed(wasm.OpF64Ne, formStack, armsElse, nan64, F64(1), 0),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		in = append(in, make([]byte, 21)...)
		op := ops[int(in[0])%len(ops)]
		forms := condForms(op)
		a := binary.LittleEndian.Uint64(in[3:])
		b := binary.LittleEndian.Uint64(in[11:])
		c := condShape{op: op, form: forms[int(in[1])%len(forms)],
			arms: condArms(int(in[2]) % int(numArms)), k: b}
		fuel := uint64(binary.LittleEndian.Uint16(in[19:]))
		p := newTierPair(t, condModule(t, c), Config{Fuel: fuel}, nil)
		p.call("f", a, b)
	})
}
