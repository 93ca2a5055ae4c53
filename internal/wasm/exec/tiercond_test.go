package exec

import (
	"encoding/binary"
	"math"
	"testing"

	"wasmcontainers/internal/wasm"
)

// The fused conditional shapes of tier 1 — a comparison or an eqz branched on
// by an if or a br_if, in every operand form the lowering tells apart, and
// an integer binop whose value only feeds such a test (fused for i32.rem_u
// and i32.mul) — run differentially against tier 0 here and in
// FuzzTierDiffConditional. So do the points where folding an operand must
// stop: a branch target, a drop, a block, a local.set or local.tee of the
// folded local, and a call between a local.get and what consumes it.

// condForm is where a comparison's operands come from.
type condForm int

const (
	formStack      condForm = iota // both on the stack: [<cmp>][if]
	formStackLocal                 // stack against a local: [local.get][<cmp>][if]
	formLocals                     // two locals: [local.get; local.get; <cmp>][if]
	formStackConst                 // stack against a constant: [const][<cmp>][if]
	formLocalConst                 // a local against a constant: [local.get][const][<cmp>][if]
	// The forms below compare a with b across a point where folding stops;
	// the first two test a value other than the comparison's.
	formTarget // a against (n != 0 ? a : b), the else arm starting at b's local.get
	formDrop   // the comparison dropped, the round counter n tested instead
	formBlock  // the comparison inside a block, left early with 1 by br_if when n != 0
	formSet    // tmp = a; tmp and b compared, the local.set of tmp to b in between
	formTee    // the same with a local.tee of tmp to b as the right operand
	formCall   // a and b passed to a function that compares them
	numForms
)

var formNames = [numForms]string{"stack", "stack-local", "locals", "stack-const", "local-const",
	"target", "drop", "block", "set", "tee", "call"}

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

// prodForm is where a producer's operands come from.
type prodForm int

const (
	prodLocals     prodForm = iota // two locals: [local.get; local.get; <op>]
	prodLocalConst                 // a local and a constant: [local.get][const][<op>]
	numProdForms
)

var prodFormNames = [numProdForms]string{"locals", "local-const"}

// condNonZero stands for no test op: the branch tests a produced i32 itself.
const condNonZero = wasm.OpNop

// condShape is one conditional under test. k is the constant right operand
// of the const forms. With a producer, the test's operand is v = a prod b
// (pform prodLocals) or a prod pk (prodLocalConst), and form is formStack
// (eqz, non-zero, or b pushed before v as a comparison's left operand),
// formStackLocal (v against b) or formStackConst (v against k).
type condShape struct {
	op    wasm.Opcode // a comparison, i32.eqz, i64.eqz or condNonZero
	form  condForm
	arms  condArms
	k     Value
	prod  wasm.Opcode // an integer binop, or 0 for none
	pform prodForm
	pk    Value
}

// condOperand is the value type a conditional's (or a producer's) operands
// have.
func condOperand(op wasm.Opcode) wasm.ValueType {
	switch {
	case op == condNonZero, op >= wasm.OpI32Eqz && op <= wasm.OpI32GeU,
		op >= wasm.OpI32Add && op <= wasm.OpI32Rotr:
		return i32
	case op >= wasm.OpI64Eqz && op <= wasm.OpI64GeU, op >= wasm.OpI64Add && op <= wasm.OpI64Rotr:
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
	barriers := []condForm{formTarget, formDrop, formBlock, formSet, formTee, formCall}
	switch vt := condOperand(op); {
	case isEqz(op):
		return []condForm{formStack}
	case vt == f32t || vt == f64t:
		return append([]condForm{formStack, formStackLocal, formLocals}, barriers...)
	}
	return append([]condForm{formStack, formStackLocal, formLocals, formStackConst, formLocalConst}, barriers...)
}

// condModule builds f(a, b) -> i32 over the operand type: three rounds of a
// loop, each running the shape once and adding 1 to the result when the
// condition holds and 16 when it does not (armsValue adds the condition). The loop's br_if and the br in
// the else layout's then-arm are the fuel charge points around the shape.
func condModule(t testing.TB, c condShape) *wasm.Module {
	vt := condOperand(c.op)
	const tmp, acc, n = 2, 3, 4
	b := new(wasm.BodyBuilder)
	konst := func(k Value) {
		if vt == i32 {
			b.I32Const(AsI32(k))
		} else {
			b.I64Const(AsI64(k))
		}
	}
	addAcc := func(v int32) {
		b.OpU32(wasm.OpLocalGet, acc).I32Const(v).Op(wasm.OpI32Add).OpU32(wasm.OpLocalSet, acc)
	}
	b.Block(wasm.OpLoop, wasm.BlockTypeEmpty)
	if c.arms == armsBrIf {
		b.Block(wasm.OpBlock, wasm.BlockTypeOf(i32)).I32Const(5).I32Const(1)
	}
	switch {
	case c.prod != 0:
		if c.form == formStack && isCmpBinop(c.op) {
			// The tee keeps the tier-0 fuser from pairing this get with the
			// producer's.
			b.OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpLocalTee, tmp)
		}
		b.OpU32(wasm.OpLocalGet, 0)
		if c.pform == prodLocals {
			b.OpU32(wasm.OpLocalGet, 1)
		} else {
			konst(c.pk)
		}
		b.Op(c.prod)
		if c.form == formStackLocal {
			b.OpU32(wasm.OpLocalGet, 1)
		} else if c.form == formStackConst {
			konst(c.k)
		}
	case c.form == formStack:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalTee, tmp)
		if !isEqz(c.op) {
			b.OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpLocalTee, tmp)
		}
	case c.form == formStackLocal:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalTee, tmp).OpU32(wasm.OpLocalGet, 1)
	case c.form == formLocals:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1)
	case c.form == formStackConst:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalTee, tmp)
		konst(c.k)
	case c.form == formLocalConst:
		b.OpU32(wasm.OpLocalGet, 0)
		konst(c.k)
	case c.form == formTarget:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, n)
		b.Block(wasm.OpIf, wasm.BlockTypeOf(vt)).OpU32(wasm.OpLocalGet, 0)
		b.Op(wasm.OpElse).OpU32(wasm.OpLocalGet, 1).End()
	case c.form == formDrop:
		b.OpU32(wasm.OpLocalGet, n).OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1)
	case c.form == formBlock:
		b.Block(wasm.OpBlock, wasm.BlockTypeOf(i32)).I32Const(1).OpU32(wasm.OpLocalGet, n).OpU32(wasm.OpBrIf, 0)
		b.Op(wasm.OpDrop).OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1)
	case c.form == formSet || c.form == formTee:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalSet, tmp)
		b.OpU32(wasm.OpLocalGet, tmp).OpU32(wasm.OpLocalGet, 1)
		if c.form == formSet {
			b.OpU32(wasm.OpLocalSet, tmp).OpU32(wasm.OpLocalGet, 1)
		} else {
			b.OpU32(wasm.OpLocalTee, tmp)
		}
	case c.form == formCall:
		b.OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1).OpU32(wasm.OpCall, 1)
	}
	if c.op != condNonZero && c.form != formCall {
		b.Op(c.op)
	}
	switch c.form {
	case formDrop:
		b.Op(wasm.OpDrop)
	case formBlock:
		b.End()
	}
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
	m := singleFunc([]wasm.ValueType{vt, vt}, []wasm.ValueType{i32}, []wasm.ValueType{vt, i32, i32}, b)
	// Function 1 compares its two parameters (formCall).
	m.Functions = append(m.Functions, 0)
	cmp := new(wasm.BodyBuilder).OpU32(wasm.OpLocalGet, 0).OpU32(wasm.OpLocalGet, 1)
	if isCmpBinop(c.op) {
		cmp.Op(c.op)
	} else {
		cmp.Op(wasm.OpDrop).Op(wasm.OpDrop).I32Const(0)
	}
	m.Codes = append(m.Codes, wasm.Code{Body: cmp.End().Bytes()})
	return buildModule(t, m)
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
// that takes the condition, one that does not and one that traps, so
// exhaustion lands before, on and after the fused op of each round.
func checkCond(t *testing.T, c condShape, vals []Value) {
	m := condModule(t, c)
	p := newTierPair(t, m, Config{}, nil)
	byArm := map[Value][2]Value{}
	for _, a := range vals {
		for _, bv := range vals {
			key := Value(math.MaxUint64) // a trap
			if res, err := p.call("f", a, bv); err == nil {
				key = res[0]
			}
			byArm[key] = [2]Value{a, bv}
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
	// The produced dimension: an integer binop whose value only feeds the
	// test, from two locals or a local and a constant (every corner, the
	// trapping divisors 0 and -1 among them), under each consumer. Tier 1
	// fuses two of these pairs; every other one must stay right unfused.
	for i, prod := range prodOps() {
		vals := condValues(condOperand(prod))
		names, shapes := prodConsumers(prod, i)
		for ci, c := range shapes {
			for pform := prodForm(0); pform < numProdForms; pform++ {
				pks := []Value{0}
				if pform == prodLocalConst {
					pks = vals
				}
				for arms := condArms(0); arms < numArms; arms++ {
					name := "produced/" + wasm.OpcodeName(prod) + "/" + prodFormNames[pform] + "/" +
						names[ci] + "/" + armNames[arms]
					t.Run(name, func(t *testing.T) {
						for _, pk := range pks {
							c.prod, c.pform, c.pk, c.arms = prod, pform, pk, arms
							checkCond(t, c, vals)
						}
					})
				}
			}
		}
	}
}

// prodOps is every integer binop a producer can be: i32 and i64 add through
// rotr, the eight div/rem among them.
func prodOps() []wasm.Opcode {
	var ops []wasm.Opcode
	for op := wasm.OpI32Add; op <= wasm.OpI32Rotr; op++ {
		ops = append(ops, op)
	}
	for op := wasm.OpI64Add; op <= wasm.OpI64Rotr; op++ {
		ops = append(ops, op)
	}
	return ops
}

// prodConsumers lists the tests a produced value of prod's type can feed,
// each with its subtest name: comparisons against a local and against a
// constant, eqz and, for an i32, the bare non-zero test. The two producers
// tier 1 fuses (i32.rem_u, i32.mul) meet every comparison in both forms; the
// i-th other producer the i-th against a local and the (i+3)-th against a
// constant, so the producers together cover every comparison. A comparison
// against the value pushed before the producer ("below") is not fused, and
// must not be mistaken for one that is.
func prodConsumers(prod wasm.Opcode, i int) (names []string, shapes []condShape) {
	vt := condOperand(prod)
	eq, eqz := wasm.OpI32Eq, wasm.OpI32Eqz
	if vt == i64t {
		eq, eqz = wasm.OpI64Eq, wasm.OpI64Eqz
	}
	vals := condValues(vt)
	add := func(name string, c condShape) {
		names, shapes = append(names, name), append(shapes, c)
	}
	fused := prod == wasm.OpI32RemU || prod == wasm.OpI32Mul
	for j := 0; j < 10; j++ {
		cmp := eq + wasm.Opcode(j)
		if fused || j == i%10 {
			add(wasm.OpcodeName(cmp)+"-local", condShape{op: cmp, form: formStackLocal})
		}
		if fused || j == (i+3)%10 {
			add(wasm.OpcodeName(cmp)+"-const", condShape{op: cmp, form: formStackConst, k: vals[(i+j)%len(vals)]})
		}
	}
	add("eqz", condShape{op: eqz, form: formStack})
	below := eq + wasm.Opcode((i+6)%10)
	add(wasm.OpcodeName(below)+"-below", condShape{op: below, form: formStack})
	if vt == i32 {
		add("nonzero", condShape{op: condNonZero, form: formStack})
	}
	return names, shapes
}

// FuzzTierDiffConditional: the input picks a conditional shape, its operands
// and a fuel budget (0 runs unfueled) and checks both tiers agree. A non-zero
// byte 21 puts a producer in front of the test: byte 21 picks the integer
// binop, byte 22 its form (b is its constant), bytes 23-30 the test's
// constant, and bytes 0-1 the test among those of the producer's type.
func FuzzTierDiffConditional(f *testing.F) {
	ops, prods := condOps(), prodOps()
	seed := func(op wasm.Opcode, form condForm, arms condArms, a, b Value, fuel uint16) []byte {
		in := []byte{byte(op - ops[0]), byte(form), byte(arms)}
		in = binary.LittleEndian.AppendUint64(in, a)
		in = binary.LittleEndian.AppendUint64(in, b)
		return binary.LittleEndian.AppendUint16(in, fuel)
	}
	// prodSeed's test is the t-th of prodTests.
	prodSeed := func(prod wasm.Opcode, pform prodForm, t int, form condForm, arms condArms, a, b, k Value, fuel uint16) []byte {
		in := seed(ops[0]+wasm.Opcode(t), form, arms, a, b, fuel)
		for i, p := range prods {
			if p == prod {
				in = append(in, byte(i+1), byte(pform))
			}
		}
		return binary.LittleEndian.AppendUint64(in, k)
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
		// Producers: is_prime's two tests, the trapping divisors in front
		// of a branch (with fuel that runs out just before and after the
		// trap), a shifted i32 past the non-zero test, i64 rem_s of MinInt
		// by -1 (0, no trap) against a constant.
		prodSeed(wasm.OpI32Mul, prodLocals, 6, formStackLocal, armsThen, 7, 7, 0, 0),
		prodSeed(wasm.OpI32RemU, prodLocals, 0, formStack, armsThen, 12, 4, 0, 0),
		prodSeed(wasm.OpI32DivS, prodLocals, 2, formStackLocal, armsBrIf, I32(math.MinInt32), I32(-1), 0, 9),
		prodSeed(wasm.OpI32DivU, prodLocalConst, 0, formStack, armsElse, 5, 0, 0, 10),
		prodSeed(wasm.OpI64DivS, prodLocalConst, 4, formStackConst, armsResult, I64(math.MinInt64), I64(-1), 3, 0),
		prodSeed(wasm.OpI32Shl, prodLocalConst, 11, formStack, armsBrIf, 1, 32, 0, 0),
		prodSeed(wasm.OpI64RemS, prodLocals, 8, formStackConst, armsThen, I64(math.MinInt64), I64(-1), 0, 13),
		// Where folding stops: a branch target, a drop, a block, a set and
		// a tee of the folded local, a call.
		seed(wasm.OpI32LtS, formTarget, armsThen, 3, 5, 0),
		seed(wasm.OpI64Eq, formDrop, armsBrIf, 7, 7, 0),
		seed(wasm.OpI32GeU, formBlock, armsResult, 1, 2, 9),
		seed(wasm.OpI32Ne, formSet, armsElse, 4, 9, 0),
		seed(wasm.OpI64LtU, formTee, armsValue, 1, 1<<40, 0),
		seed(wasm.OpI32GtS, formCall, armsThen, 5, 1, 0),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		in = append(in, make([]byte, 31)...)
		op := ops[int(in[0])%len(ops)]
		forms := condForms(op)
		a := binary.LittleEndian.Uint64(in[3:])
		b := binary.LittleEndian.Uint64(in[11:])
		c := condShape{op: op, form: forms[int(in[1])%len(forms)],
			arms: condArms(int(in[2]) % int(numArms)), k: b}
		if in[21] != 0 {
			c.prod = prods[int(in[21]-1)%len(prods)]
			c.pform, c.pk, c.k = prodForm(in[22]%2), b, binary.LittleEndian.Uint64(in[23:])
			tests := prodTests(condOperand(c.prod))
			c.op, c.form = tests[int(in[0])%len(tests)], formStack
			if isCmpBinop(c.op) {
				c.form = []condForm{formStackLocal, formStackConst, formStack}[in[1]%3]
			}
		}
		fuel := uint64(binary.LittleEndian.Uint16(in[19:]))
		p := newTierPair(t, condModule(t, c), Config{Fuel: fuel}, nil)
		p.call("f", a, b)
	})
}

// prodTests lists the tests a produced value of type vt can feed: eqz, the
// comparisons of its type and, for an i32, the non-zero test.
func prodTests(vt wasm.ValueType) []wasm.Opcode {
	var tests []wasm.Opcode
	for _, op := range condOps() {
		if condOperand(op) == vt {
			tests = append(tests, op)
		}
	}
	if vt == i32 {
		tests = append(tests, condNonZero)
	}
	return tests
}
