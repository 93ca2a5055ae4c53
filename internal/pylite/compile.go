package pylite

import "strconv"

type opcode uint8

// Bytecode operations. Every executed instruction is one step.
const (
	opConst       opcode = iota // push consts[arg]
	opLoadGlobal                // push the global (or builtin) names[arg]
	opStoreGlobal               // pop into the global names[arg]
	opBinary                    // pop r, l; push l <arg> r
	opJump                      // to arg
	opJumpIfFalse               // pop; jump to arg when falsy
	opCall                      // arg = number of arguments
	opReturn
	opBuildList // arg = number of elements
	opAttr      // push method names[arg] of the receiver on top, keeping it
	opPop
)

// Binary operator kinds (the opBinary arg). A comparison's kind is the set
// of orderings it holds for: bit 0 less, bit 1 equal, bit 2 greater.
const (
	binLt  = 0b001
	binEq  = 0b010
	binLe  = 0b011
	binGt  = 0b100
	binNe  = 0b101
	binGe  = 0b110
	binAdd = 8 + iota
	binSub
	binMul
	binDiv
	binMod
)

// binOps maps each operator to its precedence (higher binds tighter) and
// its binary kind.
var binOps = map[string][2]int{
	"==": {1, binEq}, "!=": {1, binNe}, "<": {1, binLt}, "<=": {1, binLe}, ">": {1, binGt}, ">=": {1, binGe},
	"+": {2, binAdd}, "-": {2, binSub},
	"*": {3, binMul}, "/": {3, binDiv}, "%": {3, binMod},
}

var literals = map[string]value{"True": true, "False": false, "None": nil}

var tokNames = map[tokKind]string{
	tokEOF: "end of input", tokNewline: "newline", tokIndent: "indent", tokDedent: "dedent", tokName: "identifier",
}

type instr struct {
	op   opcode
	arg  int
	line int
}

// code is a compiled module.
type code struct {
	instrs []instr
	consts []value
	names  []string
}

// compiler parses tokens and emits bytecode in the same pass. A syntax
// error panics with the *SyntaxError, and compile recovers it.
type compiler struct {
	toks []token
	pos  int
	code code
}

func compile(src string) (prog *code, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*SyntaxError)
			if !ok {
				panic(r)
			}
			prog, err = nil, se
		}
	}()
	c := &compiler{toks: toks}
	for c.peek().kind != tokEOF {
		c.statement()
	}
	// The module's implicit `return None`.
	c.emitConst(nil, 0)
	c.emit(opReturn, 0, 0)
	return &c.code, nil
}

func (c *compiler) peek() token { return c.toks[c.pos] }

func (c *compiler) next() token {
	t := c.toks[c.pos]
	if c.pos < len(c.toks)-1 {
		c.pos++
	}
	return t
}

func (c *compiler) isOp(text string) bool {
	t := c.peek()
	return t.kind == tokOp && t.text == text
}

// expect consumes a token of kind (and text, for an operator).
func (c *compiler) expect(kind tokKind, text string) token {
	t := c.next()
	if t.kind != kind || (text != "" && t.text != text) {
		if text == "" {
			text = tokNames[kind]
		}
		c.fail(t, "expected %s, got %q", text, desc(t))
	}
	return t
}

func (c *compiler) fail(t token, format string, args ...any) {
	panic(synErr(t.line, t.col, format, args...))
}

// desc names a token in a syntax error.
func desc(t token) string {
	if t.text == "" {
		return tokNames[t.kind]
	}
	return t.text
}

func (c *compiler) emit(op opcode, arg, line int) int {
	c.code.instrs = append(c.code.instrs, instr{op, arg, line})
	return len(c.code.instrs) - 1
}

func (c *compiler) emitConst(v value, line int) {
	c.code.consts = append(c.code.consts, v)
	c.emit(opConst, len(c.code.consts)-1, line)
}

func (c *compiler) name(s string) int {
	c.code.names = append(c.code.names, s)
	return len(c.code.names) - 1
}

// statement compiles `while cond: block`, `pass`, `name = expr` or an
// expression statement.
func (c *compiler) statement() {
	t := c.peek()
	switch {
	case t.kind == tokKeyword && t.text == "while":
		c.next()
		top := len(c.code.instrs)
		c.expr(0)
		exit := c.emit(opJumpIfFalse, -1, t.line)
		c.expect(tokOp, ":")
		c.expect(tokNewline, "")
		c.expect(tokIndent, "")
		for c.peek().kind != tokDedent {
			c.statement()
		}
		c.next()
		c.emit(opJump, top, t.line)
		c.code.instrs[exit].arg = len(c.code.instrs)
		return
	case t.kind == tokKeyword && t.text == "pass":
		c.next()
	case t.kind == tokName && c.toks[c.pos+1].kind == tokOp && c.toks[c.pos+1].text == "=":
		c.next()
		eq := c.next()
		c.expr(0)
		c.emit(opStoreGlobal, c.name(t.text), eq.line)
	default:
		c.expr(0)
		c.emit(opPop, 0, t.line)
	}
	c.expect(tokNewline, "")
}

// expr compiles a left-associative chain of operators binding at least as
// tightly as prec.
func (c *compiler) expr(prec int) {
	c.postfix()
	for {
		t := c.peek()
		op, ok := binOps[t.text]
		if t.kind != tokOp || !ok || op[0] < prec {
			return
		}
		c.next()
		c.expr(op[0] + 1)
		c.emit(opBinary, op[1], t.line)
	}
}

// postfix compiles an atom followed by calls and method calls.
func (c *compiler) postfix() {
	c.atom()
	for {
		t := c.peek()
		switch {
		case c.isOp("("):
			c.next()
			c.emit(opCall, c.items(")"), t.line)
		case c.isOp("."):
			c.next()
			name := c.expect(tokName, "")
			// A method is only ever called, so the opCall that follows
			// always consumes the receiver opAttr keeps.
			if !c.isOp("(") {
				c.fail(name, "method %s must be called", name.text)
			}
			c.emit(opAttr, c.name(name.text), t.line)
		default:
			return
		}
	}
}

// items compiles comma-separated expressions up to close and returns how
// many there were.
func (c *compiler) items(close string) int {
	n := 0
	for !c.isOp(close) {
		c.expr(0)
		n++
		if !c.isOp(",") {
			break
		}
		c.next()
	}
	c.expect(tokOp, close)
	return n
}

func (c *compiler) atom() {
	t := c.next()
	v, isLiteral := literals[t.text]
	switch {
	case t.kind == tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			c.fail(t, "invalid integer %q", t.text)
		}
		c.emitConst(n, t.line)
	case t.kind == tokString:
		c.emitConst(t.text, t.line)
	case t.kind == tokName:
		c.emit(opLoadGlobal, c.name(t.text), t.line)
	case t.kind == tokKeyword && isLiteral:
		c.emitConst(v, t.line)
	case t.kind == tokOp && t.text == "(":
		c.expr(0)
		c.expect(tokOp, ")")
	case t.kind == tokOp && t.text == "[":
		c.emit(opBuildList, c.items("]"), t.line)
	default:
		c.fail(t, "unexpected %q", desc(t))
	}
}
