package pylite

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// value is any pylite runtime value: nil (None), bool, int64, float64 (only
// `/` makes one), string, *list or *builtin.
type value = any

type list struct{ items []value }

// builtin is a native callable. A method takes its receiver as args[0].
type builtin struct {
	name   string
	method bool
	fn     func(vm *VM, args []value) (value, error)
}

var (
	builtins     = map[string]value{"print": &builtin{name: "print", fn: (*VM).print}}
	appendMethod = &builtin{name: "append", method: true, fn: (*VM).append}
)

// RuntimeError is a pylite execution failure.
type RuntimeError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("pylite: runtime error at line %d: %s", e.Line, e.Msg)
}

// ErrTooManySteps aborts runaway programs when VM.MaxSteps is set.
var ErrTooManySteps = errors.New("pylite: step limit exceeded")

// VM executes pylite programs.
type VM struct {
	// Steps counts executed bytecode instructions.
	Steps uint64
	// MaxSteps bounds execution; 0 means unlimited.
	MaxSteps uint64
	// HeapBytes approximates the bytes of the lists the program built.
	HeapBytes int64

	stdout  io.Writer
	globals map[string]value
}

// NewVM creates a VM writing program output to stdout (nil discards).
func NewVM(stdout io.Writer) *VM {
	return &VM{stdout: stdout, globals: make(map[string]value)}
}

// RunSource compiles and runs a module in the VM's globals. The module's
// value is always None, so the first result is always nil; the error is a
// *SyntaxError, a *RuntimeError or ErrTooManySteps.
func (vm *VM) RunSource(src string) (any, error) {
	c, err := compile(src)
	if err != nil {
		return nil, err
	}
	return nil, vm.run(c)
}

func (vm *VM) run(c *code) error {
	var stack []value
	// compile ends every module with opReturn.
	for pc := 0; ; pc++ {
		in := c.instrs[pc]
		vm.Steps++
		if vm.MaxSteps > 0 && vm.Steps > vm.MaxSteps {
			return ErrTooManySteps
		}
		top := len(stack) - 1
		var err error
		switch in.op {
		case opConst:
			stack = append(stack, c.consts[in.arg])
		case opLoadGlobal:
			v, ok := vm.globals[c.names[in.arg]]
			if !ok {
				v, ok = builtins[c.names[in.arg]]
			}
			if !ok {
				err = fmt.Errorf("name %q is not defined", c.names[in.arg])
			}
			stack = append(stack, v)
		case opStoreGlobal:
			vm.globals[c.names[in.arg]] = stack[top]
			stack = stack[:top]
		case opBinary:
			stack[top-1], err = binary(in.arg, stack[top-1], stack[top])
			stack = stack[:top]
		case opJump:
			pc = in.arg - 1
		case opJumpIfFalse:
			if !truthy(stack[top]) {
				pc = in.arg - 1
			}
			stack = stack[:top]
		case opCall:
			at := top - in.arg // the callee; its arguments follow it
			f, ok := stack[at].(*builtin)
			if !ok {
				err = fmt.Errorf("'%s' object is not callable", typeName(stack[at]))
				break
			}
			if f.method {
				// opAttr left the receiver below the method: it becomes
				// args[0], and the result replaces it.
				at--
				stack[at+1] = stack[at]
			}
			// No callee keeps args, so it aliases the stack.
			stack[at], err = f.fn(vm, stack[at+1:])
			stack = stack[:at+1]
		case opReturn:
			return nil
		case opBuildList:
			n := len(stack) - in.arg
			l := &list{items: append([]value(nil), stack[n:]...)}
			stack = append(stack[:n], l)
			vm.HeapBytes += int64(16 + 8*in.arg)
		case opAttr:
			if _, ok := stack[top].(*list); !ok || c.names[in.arg] != "append" {
				err = fmt.Errorf("'%s' object has no attribute %q", typeName(stack[top]), c.names[in.arg])
			}
			stack = append(stack, appendMethod)
		case opPop:
			stack = stack[:top]
		}
		if err != nil {
			return &RuntimeError{Line: in.line, Msg: err.Error()}
		}
	}
}

func (vm *VM) print(args []value) (value, error) {
	if vm.stdout == nil {
		return nil, nil
	}
	parts := make([]string, len(args))
	for i, a := range args {
		s, ok := a.(string)
		if !ok {
			s = repr(a, nil)
		}
		parts[i] = s
	}
	_, err := fmt.Fprintln(vm.stdout, strings.Join(parts, " "))
	return nil, err
}

func (vm *VM) append(args []value) (value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("append() takes exactly one argument (%d given)", len(args)-1)
	}
	l := args[0].(*list)
	l.items = append(l.items, args[1])
	vm.HeapBytes += 8
	return nil, nil
}

// binary applies an operator to two ints. `/` is true division, so it
// yields a float; `%` takes the sign of the divisor, as in Python.
func binary(kind int, l, r value) (value, error) {
	a, aok := l.(int64)
	b, bok := r.(int64)
	if !aok || !bok {
		return nil, fmt.Errorf("unsupported operand types: %s and %s", typeName(l), typeName(r))
	}
	switch kind {
	case binAdd:
		return a + b, nil
	case binSub:
		return a - b, nil
	case binMul:
		return a * b, nil
	case binDiv:
		if b == 0 {
			return nil, errors.New("division by zero")
		}
		return float64(a) / float64(b), nil
	case binMod:
		if b == 0 {
			return nil, errors.New("integer division or modulo by zero")
		}
		if m := a % b; m != 0 && (m < 0) != (b < 0) {
			return m + b, nil
		}
		return a % b, nil
	}
	return kind>>(cmp.Compare(a, b)+1)&1 == 1, nil
}

// truthy follows Python: None, False, 0, 0.0, "" and [] are false.
func truthy(v value) bool {
	if l, ok := v.(*list); ok {
		return len(l.items) > 0
	}
	return v != nil && v != false && v != int64(0) && v != 0.0 && v != ""
}

// pyTypes names each value's Go type as Python does.
var pyTypes = map[string]string{
	"<nil>": "NoneType", "bool": "bool", "int64": "int", "float64": "float", "string": "str",
	"*pylite.list": "list", "*pylite.builtin": "builtin_function_or_method",
}

func typeName(v value) string { return pyTypes[fmt.Sprintf("%T", v)] }

// reprs spells None, True and False.
var reprs = map[value]string{nil: "None", true: "True", false: "False"}

// repr renders a value print does not write as is: as Python's repr()
// does for None, bools, ints, floats and lists, and a string single-quoted
// with ' escaped. open holds the lists being rendered, so a list that
// contains itself renders as [...].
func repr(v value, open []*list) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e16 {
			return strconv.FormatFloat(x, 'f', 1, 64)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "'" + strings.ReplaceAll(x, "'", `\'`) + "'"
	case *list:
		if slices.Contains(open, x) {
			return "[...]"
		}
		parts := make([]string, len(x.items))
		for i, it := range x.items {
			parts[i] = repr(it, append(open, x))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *builtin:
		return "<built-in function " + x.name + ">"
	}
	return reprs[v]
}
