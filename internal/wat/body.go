package wat

import (
	"strings"

	"wasmcontainers/internal/wasm"
)

// opcodeByName maps textual mnemonics to single-byte opcodes, built by
// inverting the wasm package's opcode-name table.
var opcodeByName = func() map[string]wasm.Opcode {
	m := make(map[string]wasm.Opcode, 200)
	for op := 0; op < 256; op++ {
		name := wasm.OpcodeName(wasm.Opcode(op))
		if !strings.HasPrefix(name, "op(") && !strings.HasPrefix(name, "misc(") {
			m[name] = wasm.Opcode(op)
		}
	}
	return m
}()

// miscByName maps 0xFC-prefixed mnemonics to sub-opcodes.
var miscByName = map[string]uint32{
	"i32.trunc_sat_f32_s": wasm.MiscI32TruncSatF32S,
	"i32.trunc_sat_f32_u": wasm.MiscI32TruncSatF32U,
	"i32.trunc_sat_f64_s": wasm.MiscI32TruncSatF64S,
	"i32.trunc_sat_f64_u": wasm.MiscI32TruncSatF64U,
	"i64.trunc_sat_f32_s": wasm.MiscI64TruncSatF32S,
	"i64.trunc_sat_f32_u": wasm.MiscI64TruncSatF32U,
	"i64.trunc_sat_f64_s": wasm.MiscI64TruncSatF64S,
	"i64.trunc_sat_f64_u": wasm.MiscI64TruncSatF64U,
	"memory.copy":         wasm.MiscMemoryCopy,
	"memory.fill":         wasm.MiscMemoryFill,
}

// naturalAlign gives the default (natural) alignment exponent per
// load/store opcode.
var naturalAlign = map[wasm.Opcode]uint32{
	wasm.OpI32Load: 2, wasm.OpI64Load: 3, wasm.OpF32Load: 2, wasm.OpF64Load: 3,
	wasm.OpI32Load8S: 0, wasm.OpI32Load8U: 0, wasm.OpI32Load16S: 1, wasm.OpI32Load16U: 1,
	wasm.OpI64Load8S: 0, wasm.OpI64Load8U: 0, wasm.OpI64Load16S: 1, wasm.OpI64Load16U: 1,
	wasm.OpI64Load32S: 2, wasm.OpI64Load32U: 2,
	wasm.OpI32Store: 2, wasm.OpI64Store: 3, wasm.OpF32Store: 2, wasm.OpF64Store: 3,
	wasm.OpI32Store8: 0, wasm.OpI32Store16: 1,
	wasm.OpI64Store8: 0, wasm.OpI64Store16: 1, wasm.OpI64Store32: 2,
}

// assembleBodies performs the second pass over all collected functions.
func (a *assembler) assembleBodies() error {
	for _, d := range a.decls {
		fa := &funcAssembler{a: a, d: d, b: &wasm.BodyBuilder{}}
		if err := fa.emitSeq(d.body); err != nil {
			return err
		}
		fa.b.End()
		a.m.Codes = append(a.m.Codes, wasm.Code{Locals: d.locals, Body: fa.b.Bytes()})
	}
	return nil
}

type funcAssembler struct {
	a      *assembler
	d      *funcDecl
	b      *wasm.BodyBuilder
	labels []string // innermost last
}

// localIndex resolves a local or parameter by name or number.
func (fa *funcAssembler) localIndex(s *sexpr) (uint32, error) {
	if strings.HasPrefix(s.atom, "$") {
		for i, n := range fa.d.paramNames {
			if n == s.atom {
				return uint32(i), nil
			}
		}
		for i, n := range fa.d.localNames {
			if n == s.atom {
				return uint32(len(fa.d.paramNames) + i), nil
			}
		}
		return 0, errAt(s, "unknown local %s", s.atom)
	}
	return parseUint32(s)
}

// labelDepth resolves a branch label by name or number.
func (fa *funcAssembler) labelDepth(s *sexpr) (uint32, error) {
	if strings.HasPrefix(s.atom, "$") {
		for i := len(fa.labels) - 1; i >= 0; i-- {
			if fa.labels[i] == s.atom {
				return uint32(len(fa.labels) - 1 - i), nil
			}
		}
		return 0, errAt(s, "unknown label %s", s.atom)
	}
	return parseUint32(s)
}

// blockType parses an optional label and (result T) annotation for
// block/loop/if forms, returning remaining items.
func (fa *funcAssembler) blockHeader(items []*sexpr) (label string, bt int64, rest []*sexpr, err error) {
	bt = wasm.BlockTypeEmpty
	if len(items) > 0 && !items[0].isList && strings.HasPrefix(items[0].atom, "$") {
		label = items[0].atom
		items = items[1:]
	}
	if len(items) > 0 && items[0].head() == "result" {
		if len(items[0].items) != 2 {
			return "", 0, nil, errAt(items[0], "block results support exactly one value")
		}
		vt, verr := valueType(items[0].items[1])
		if verr != nil {
			return "", 0, nil, verr
		}
		bt = wasm.BlockTypeOf(vt)
		items = items[1:]
	}
	return label, bt, items, nil
}

// emit assembles one instruction, handling flat atoms, folded lists, and
// structured control forms.
func (fa *funcAssembler) emit(s *sexpr) error {
	if s.isList {
		return fa.emitList(s)
	}
	// A bare atom begins a flat instruction; its immediates were consumed by
	// the caller (emitSeq) — this path only handles zero-immediate opcodes.
	return fa.emitFlat(s, nil)
}

// emitList handles a folded instruction: (op operands... immediates).
func (fa *funcAssembler) emitList(s *sexpr) error {
	if len(s.items) == 0 {
		return errAt(s, "empty expression")
	}
	head := s.items[0]
	if head.isList {
		return errAt(s, "expected instruction mnemonic")
	}
	op := head.atom
	args := s.items[1:]
	switch op {
	case "block", "loop":
		label, bt, rest, err := fa.blockHeader(args)
		if err != nil {
			return err
		}
		kind := wasm.OpBlock
		if op == "loop" {
			kind = wasm.OpLoop
		}
		fa.b.Block(kind, bt)
		fa.labels = append(fa.labels, label)
		if err := fa.emitSeq(rest); err != nil {
			return err
		}
		fa.labels = fa.labels[:len(fa.labels)-1]
		fa.b.End()
		return nil
	case "if":
		label, bt, rest, err := fa.blockHeader(args)
		if err != nil {
			return err
		}
		// Folded if: condition operand(s) first, then (then ...) and
		// optional (else ...).
		var thenForm, elseForm *sexpr
		var conds []*sexpr
		for _, it := range rest {
			switch it.head() {
			case "then":
				thenForm = it
			case "else":
				elseForm = it
			default:
				conds = append(conds, it)
			}
		}
		if thenForm != nil {
			for _, c := range conds {
				if err := fa.emitList(c); err != nil {
					return err
				}
			}
			fa.b.Block(wasm.OpIf, bt)
			fa.labels = append(fa.labels, label)
			if err := fa.emitSeq(thenForm.items[1:]); err != nil {
				return err
			}
			if elseForm != nil {
				fa.b.Op(wasm.OpElse)
				if err := fa.emitSeq(elseForm.items[1:]); err != nil {
					return err
				}
			}
			fa.labels = fa.labels[:len(fa.labels)-1]
			fa.b.End()
			return nil
		}
		// Flat-style if inside parens: (if <instrs> ... end-implied)
		fa.b.Block(wasm.OpIf, bt)
		fa.labels = append(fa.labels, label)
		if err := fa.emitSeq(rest); err != nil {
			return err
		}
		fa.labels = fa.labels[:len(fa.labels)-1]
		fa.b.End()
		return nil
	}
	// Generic folded form: operand sub-expressions first, then the
	// instruction with its atom immediates.
	var imms []*sexpr
	for _, it := range args {
		if it.isList {
			// call_indirect (type $t) is an immediate, not an operand.
			if op == "call_indirect" && it.head() == "type" {
				imms = append(imms, it)
				continue
			}
			if err := fa.emitList(it); err != nil {
				return err
			}
		} else {
			imms = append(imms, it)
		}
	}
	return fa.emitFlat(head, imms)
}

// emitSeq assembles a body sequence in flat form, where instructions are
// atoms followed by their immediates, interleaved with folded lists and
// structural keywords.
func (fa *funcAssembler) emitSeq(items []*sexpr) error {
	i := 0
	for i < len(items) {
		it := items[i]
		if it.isList {
			if err := fa.emitList(it); err != nil {
				return err
			}
			i++
			continue
		}
		op := it.atom
		switch op {
		case "block", "loop", "if":
			// Flat structured form: op [label] [(result T)] ... end
			j := i + 1
			var hdr []*sexpr
			for j < len(items) {
				if !items[j].isList && strings.HasPrefix(items[j].atom, "$") && len(hdr) == 0 {
					hdr = append(hdr, items[j])
					j++
					continue
				}
				if items[j].isList && items[j].head() == "result" && len(hdr) <= 1 {
					hdr = append(hdr, items[j])
					j++
					continue
				}
				break
			}
			label, bt, _, err := fa.blockHeader(hdr)
			if err != nil {
				return err
			}
			var kind wasm.Opcode
			switch op {
			case "block":
				kind = wasm.OpBlock
			case "loop":
				kind = wasm.OpLoop
			default:
				kind = wasm.OpIf
			}
			fa.b.Block(kind, bt)
			fa.labels = append(fa.labels, label)
			// Find matching end at the same nesting level.
			depth := 1
			k := j
			for ; k < len(items); k++ {
				if items[k].isList {
					continue
				}
				switch items[k].atom {
				case "block", "loop", "if":
					depth++
				case "end":
					depth--
				case "else":
					if depth == 1 {
						// Emit the then-part, then the else marker.
						if err := fa.emitSeq(items[j:k]); err != nil {
							return err
						}
						fa.b.Op(wasm.OpElse)
						j = k + 1
					}
					continue
				}
				if depth == 0 {
					break
				}
			}
			if depth != 0 {
				return errAt(it, "missing end for %s", op)
			}
			if err := fa.emitSeq(items[j:k]); err != nil {
				return err
			}
			fa.labels = fa.labels[:len(fa.labels)-1]
			fa.b.End()
			i = k + 1
			continue
		}
		// Regular instruction: consume its immediates.
		n := immediateCount(op)
		var imms []*sexpr
		for n > 0 && i+1 < len(items) {
			nxt := items[i+1]
			if nxt.isList {
				if op == "call_indirect" && nxt.head() == "type" {
					imms = append(imms, nxt)
					i++
					continue
				}
				break
			}
			// Stop if the atom is itself a known instruction mnemonic
			// (immediates are numbers, $names, or key=value pairs).
			_, isOp := opcodeByName[nxt.atom]
			_, isMisc := miscByName[nxt.atom]
			if (isOp || isMisc) && !strings.Contains(nxt.atom, "=") {
				break
			}
			imms = append(imms, nxt)
			i++
			n--
		}
		if err := fa.emitFlat(it, imms); err != nil {
			return err
		}
		i++
	}
	return nil
}

// immediateCount returns the maximum number of atom immediates an
// instruction mnemonic consumes in flat form.
func immediateCount(op string) int {
	switch op {
	case "br_table":
		return 64 // variadic; bounded by label depth in practice
	case "call_indirect":
		return 1
	}
	if strings.HasSuffix(op, ".const") {
		return 1
	}
	switch op {
	case "br", "br_if", "call", "local.get", "local.set", "local.tee",
		"global.get", "global.set":
		return 1
	}
	if strings.Contains(op, ".load") || strings.Contains(op, ".store") {
		return 2 // offset= and align=
	}
	return 0
}

// emitFlat assembles a single mnemonic with pre-collected atom immediates.
func (fa *funcAssembler) emitFlat(head *sexpr, imms []*sexpr) error {
	op := head.atom
	if sub, ok := miscByName[op]; ok {
		fa.b.Misc(sub)
		return nil
	}
	// Instructions with mandatory immediates must actually have them.
	switch op {
	case "i32.const", "i64.const", "f32.const", "f64.const",
		"call", "local.get", "local.set", "local.tee",
		"global.get", "global.set":
		if len(imms) != 1 {
			return errAt(head, "%s requires exactly one immediate", op)
		}
	}
	switch op {
	case "i32.const":
		v, err := parseInt32(imms[0])
		if err != nil {
			return err
		}
		fa.b.I32Const(v)
		return nil
	case "i64.const":
		v, err := parseInt64(imms[0])
		if err != nil {
			return err
		}
		fa.b.I64Const(v)
		return nil
	case "f32.const":
		v, err := parseFloat(imms[0])
		if err != nil {
			return err
		}
		fa.b.F32Const(float32(v))
		return nil
	case "f64.const":
		v, err := parseFloat(imms[0])
		if err != nil {
			return err
		}
		fa.b.F64Const(v)
		return nil
	case "br", "br_if":
		if len(imms) != 1 {
			return errAt(head, "%s needs a label", op)
		}
		d, err := fa.labelDepth(imms[0])
		if err != nil {
			return err
		}
		kind := wasm.OpBr
		if op == "br_if" {
			kind = wasm.OpBrIf
		}
		fa.b.OpU32(kind, d)
		return nil
	case "br_table":
		if len(imms) < 1 {
			return errAt(head, "br_table needs labels")
		}
		var depths []uint32
		for _, im := range imms {
			d, err := fa.labelDepth(im)
			if err != nil {
				return err
			}
			depths = append(depths, d)
		}
		fa.b.BrTable(depths[:len(depths)-1], depths[len(depths)-1])
		return nil
	case "call":
		fi, err := fa.a.funcIndex(imms[0])
		if err != nil {
			return err
		}
		fa.b.OpU32(wasm.OpCall, fi)
		return nil
	case "call_indirect":
		ti := uint32(0)
		if len(imms) == 1 {
			if imms[0].isList && imms[0].head() == "type" {
				var err error
				ti, err = fa.a.typeIndex(imms[0].arg(1))
				if err != nil {
					return err
				}
			} else {
				var err error
				ti, err = parseUint32(imms[0])
				if err != nil {
					return err
				}
			}
		}
		fa.b.CallIndirect(ti)
		return nil
	case "local.get", "local.set", "local.tee":
		li, err := fa.localIndex(imms[0])
		if err != nil {
			return err
		}
		var kind wasm.Opcode
		switch op {
		case "local.get":
			kind = wasm.OpLocalGet
		case "local.set":
			kind = wasm.OpLocalSet
		default:
			kind = wasm.OpLocalTee
		}
		fa.b.OpU32(kind, li)
		return nil
	case "global.get", "global.set":
		gi, err := fa.a.globalIndex(imms[0])
		if err != nil {
			return err
		}
		kind := wasm.OpGlobalGet
		if op == "global.set" {
			kind = wasm.OpGlobalSet
		}
		fa.b.OpU32(kind, gi)
		return nil
	case "memory.size":
		fa.b.MemoryOp(wasm.OpMemorySize)
		return nil
	case "memory.grow":
		fa.b.MemoryOp(wasm.OpMemoryGrow)
		return nil
	case "else":
		fa.b.Op(wasm.OpElse)
		return nil
	case "end":
		fa.b.End()
		return nil
	case "nop":
		fa.b.Op(wasm.OpNop)
		return nil
	}
	code, ok := opcodeByName[op]
	if !ok {
		return errAt(head, "unknown instruction %q", op)
	}
	if na, isMem := naturalAlign[code]; isMem {
		offset := uint32(0)
		align := na
		for _, im := range imms {
			txt := im.atom
			switch {
			case strings.HasPrefix(txt, "offset="):
				v, err := parseUint32(&sexpr{atom: txt[len("offset="):], line: im.line, col: im.col})
				if err != nil {
					return err
				}
				offset = v
			case strings.HasPrefix(txt, "align="):
				v, err := parseUint32(&sexpr{atom: txt[len("align="):], line: im.line, col: im.col})
				if err != nil {
					return err
				}
				// The binary stores log2(align).
				exp := uint32(0)
				for 1<<exp < v {
					exp++
				}
				align = exp
			default:
				return errAt(im, "unexpected memarg %q", txt)
			}
		}
		fa.b.MemArg(code, align, offset)
		return nil
	}
	fa.b.Op(code)
	return nil
}
