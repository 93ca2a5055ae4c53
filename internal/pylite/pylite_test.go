package pylite

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"wasmcontainers/internal/workloads"
)

// runSrc executes source and returns stdout.
func runSrc(t *testing.T, src string) string {
	t.Helper()
	var out bytes.Buffer
	vm := NewVM(&out)
	if _, err := vm.RunSource(src); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// runErr executes source and returns the error.
func runErr(t *testing.T, src string) error {
	t.Helper()
	vm := NewVM(nil)
	_, err := vm.RunSource(src)
	return err
}

// TestMinimalServiceApp pins everything a Python container's start reads from
// the interpreter — stdout, the error text, Steps (priced at
// core.PythonProfile.NsPerStep) and HeapBytes (mapped private) — for every
// script that reaches core.PythonHandler: the service app itself, the crun
// handler tests' print and guest-error scripts, a syntax error, and a
// runaway loop under MaxSteps.
func TestMinimalServiceApp(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		maxSteps uint64
		stdout   string
		err      string
		kind     string // "", "syntax", "runtime" or "steps"
		steps    uint64
		heap     int64
	}{
		{"service", workloads.MinimalServicePy, 0, "service ready\n", "", "", 3598, 2064},
		{"print", "print('py in crun')", 0, "py in crun\n", "", "", 6, 0},
		{"div-zero", "x = 1 / 0", 0, "", "pylite: runtime error at line 1: division by zero", "runtime", 3, 0},
		{"syntax", "x = (", 0, "", `pylite: line 1:0: unexpected "end of input"`, "syntax", 0, 0},
		{"step-limit", "while True:\n    pass", 10_000, "", "pylite: step limit exceeded", "steps", 10_001, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			vm := NewVM(&out)
			vm.MaxSteps = c.maxSteps
			_, err := vm.RunSource(c.src)
			gotErr, kind := "", ""
			if err != nil {
				gotErr = err.Error()
				var se *SyntaxError
				var re *RuntimeError
				switch {
				case errors.As(err, &se):
					kind = "syntax"
				case errors.As(err, &re):
					kind = "runtime"
				case errors.Is(err, ErrTooManySteps):
					kind = "steps"
				default:
					kind = "other"
				}
			}
			if out.String() != c.stdout || gotErr != c.err || kind != c.kind {
				t.Fatalf("stdout %q, err %q (%s); want %q, %q (%s)", out.String(), gotErr, kind, c.stdout, c.err, c.kind)
			}
			if vm.Steps != c.steps || vm.HeapBytes != c.heap {
				t.Fatalf("steps %d, heap %d B; want %d, %d B", vm.Steps, vm.HeapBytes, c.steps, c.heap)
			}
		})
	}
}

func TestPrintAndArithmetic(t *testing.T) {
	out := runSrc(t, `
x = 2 + 3 * 4
y = (2 + 3) * 4
print(x, y)
print(7 % 2, 7 / 2, 10 - 3 - 2)
print((0 - 7) % 2, 7 % (0 - 2), 2 * 2 * 2 * 2 * 2 * 2 * 2 * 2 * 2 * 2)
`)
	want := "14 20\n1 3.5 5\n1 -1 1024\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestArithmeticAndComparisons: a comparison binds looser than arithmetic
// on either side, and yields a bool.
func TestArithmeticAndComparisons(t *testing.T) {
	out := runSrc(t, `
print(1 < 2, 2 <= 2, 3 > 4, 4 >= 4, 1 == 1, 1 != 1)
print(1 + 1 == 2, 2 * 3 < 5, 10 % 3 != 1, 0 - 5 >= 0 - 5, 7 - 1 > 2 * 3)
x = 3 * 3 == 9
print(x)
`)
	want := "True True False True True False\nTrue False False True False\nTrue\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestFloatFormatting(t *testing.T) {
	// `/` is the only source of floats: a whole one keeps its ".0", a
	// large one switches to exponent form, as Python's repr does.
	out := runSrc(t, `
print(3 / 2, 6 / 3, 1 / 4, 0 / 5, (0 - 1) / 3)
print(9999999999999998 / 1, 10000000000000000 / 1, 100000000000000000 / 1, 1 / 1000000)
`)
	want := "1.5 2.0 0.25 0.0 -0.3333333333333333\n9999999999999998.0 1e+16 1e+17 1e-06\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestWhileLoop(t *testing.T) {
	out := runSrc(t, `
total = 0
i = 1
# a comment, then a blank line

while i <= 100:
    total = total + i
    i = i + 1
    if_ = i % 2
print(total, i)
`)
	if out != "5050 101\n" {
		t.Fatalf("got %q", out)
	}
}

func TestPrintValues(t *testing.T) {
	out := runSrc(t, `
xs = [1, "it's", None, True, False, [2, 3], 7 / 2]
xs.append(xs)
print(xs, [], print)
print("a", 'b', "")
`)
	want := "[1, 'it\\'s', None, True, False, [2, 3], 3.5, [...]] [] <built-in function print>\na b \n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestMultiLineCollections(t *testing.T) {
	out := runSrc(t, `
xs = [
    1,
    2,
    3,
]
y = (1 +
     2 +
     3)
print(xs, y)
`)
	if out != "[1, 2, 3] 6\n" {
		t.Fatalf("got %q", out)
	}
}

func TestTruthiness(t *testing.T) {
	// Each falsy value skips the loop body; each truthy one runs it once.
	for _, c := range []struct {
		cond string
		want string
	}{
		{"0", ""}, {"1", "x\n"}, {`""`, ""}, {`"s"`, "x\n"}, {"[]", ""}, {"[0]", "x\n"},
		{"None", ""}, {"True", "x\n"}, {"False", ""}, {"1 / 2", "x\n"}, {"0 / 2", ""}, {"print", "x\n"},
	} {
		src := "go = " + c.cond + "\nwhile go:\n    print('x')\n    go = False\n"
		if got := runSrc(t, src); got != c.want {
			t.Errorf("while %s: got %q, want %q", c.cond, got, c.want)
		}
	}
}

func TestListsAndMethods(t *testing.T) {
	// append mutates the list every name for it sees and returns None; its
	// argument is evaluated first, so a nested append lands before it.
	out := runSrc(t, `
xs = [3, 1, 2]
r = xs.append(10)
ys = xs
ys.append("end")
print(xs, r)
zs = []
zs.append(zs.append(1))
[].append(zs)
print(zs)
`)
	want := "[3, 1, 2, 10, 'end'] None\n[1, None]\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestNestedDataStructures(t *testing.T) {
	var out bytes.Buffer
	vm := NewVM(&out)
	if _, err := vm.RunSource(`
grid = [[1, 2], [3, 4]]
row = [5]
grid.append(row)
row.append(6)
grid.append(grid)
print(grid)
`); err != nil {
		t.Fatal(err)
	}
	if out.String() != "[[1, 2], [3, 4], [5, 6], [...]]\n" {
		t.Fatalf("got %q", out.String())
	}
	// Three two-element literals, one outer two-element literal, one
	// one-element literal, and three appends.
	if want := int64(3*(16+8*2) + (16 + 8) + 3*8); vm.HeapBytes != want {
		t.Fatalf("heap bytes = %d, want %d", vm.HeapBytes, want)
	}
}

func TestStringsAndMethods(t *testing.T) {
	// print writes a string as is and a list's strings single-quoted.
	out := runSrc(t, `
a = "double"
b = 'single'
c = 'say "hi"'
print(a, b, c, "")
print([a, b, c, ""])
`)
	want := "double single say \"hi\" \n['double', 'single', 'say \"hi\"', '']\n"
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
	// Strings have no methods and no operators.
	for src, msg := range map[string]string{
		`"s".append(1)`:    `'str' object has no attribute "append"`,
		`x = "a" < "b"`:    "unsupported operand types: str and str",
		`x = 'a' + "b"`:    "unsupported operand types: str and str",
		`x = "ab" == "ab"`: "unsupported operand types: str and str",
	} {
		var re *RuntimeError
		if err := runErr(t, src); !errors.As(err, &re) || !strings.Contains(err.Error(), msg) {
			t.Errorf("%q: error %v, want a runtime error containing %q", src, err, msg)
		}
	}
}

// TestBuiltins: print is the only builtin, and a global of the same name
// shadows it.
func TestBuiltins(t *testing.T) {
	out := runSrc(t, `
print()
r = print("x", 1)
print(r)
`)
	if out != "\nx 1\nNone\n" {
		t.Fatalf("got %q", out)
	}
	// A VM without stdout discards print's output and still runs.
	if err := runErr(t, "print('discarded')"); err != nil {
		t.Fatalf("print with no stdout: %v", err)
	}
	for src, msg := range map[string]string{
		"x = len([])":         `name "len" is not defined`,
		"x = str(1)":          `name "str" is not defined`,
		"print = 5\nprint(1)": "line 2: 'int' object is not callable",
	} {
		var re *RuntimeError
		if err := runErr(t, src); !errors.As(err, &re) || !strings.Contains(err.Error(), msg) {
			t.Errorf("%q: error %v, want a runtime error containing %q", src, err, msg)
		}
	}
}

func TestHeapAccounting(t *testing.T) {
	vm := NewVM(nil)
	if _, err := vm.RunSource(`
xs = [1, 2, 3]
i = 0
while i < 1000:
    xs.append(i)
    i = i + 1
`); err != nil {
		t.Fatal(err)
	}
	// A list literal is 16 bytes plus 8 per element; an append adds 8.
	if want := int64(16 + 8*3 + 8*1000); vm.HeapBytes != want {
		t.Fatalf("heap bytes = %d, want %d", vm.HeapBytes, want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`x = 1 / 0`, "line 1: division by zero"},
		{"x = 1\ny = x % 0", "line 2: integer division or modulo by zero"},
		{`print(nothing)`, `name "nothing" is not defined`},
		{"x = 5\nx()", "'int' object is not callable"},
		{`x = "a" + 1`, "unsupported operand types: str and int"},
		{`x = True < 2`, "unsupported operand types: bool and int"},
		{"x = 1\nx.append(2)", `'int' object has no attribute "append"`},
		{"x = []\nx.pop()", `'list' object has no attribute "pop"`},
		{"x = []\nx.append(1, 2)", "append() takes exactly one argument (2 given)"},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			err := runErr(t, c.src)
			var re *RuntimeError
			if !errors.As(err, &re) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q: error %v, want a runtime error containing %q", c.src, err, c.want)
			}
		})
	}
}

// TestSyntaxErrors covers malformed input and the Python the interpreter
// does not implement: both are rejected before anything runs.
func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"x = 1\n  y = 2", `line 2:0: unexpected "indent"`},
		{"while True:\n        x = 1\n    y = 2", "line 3:1: inconsistent indentation"},
		{`x = "unterminated`, "line 1:5: unterminated string"},
		{`x = "a\nb"`, "escape sequences are not supported"},
		{"x = 1 ! 2", `unexpected character "!"`},
		{"\tx = 1", `unexpected character "\t"`},
		{"x = 99999999999999999999", "invalid integer"},
		{"x = 1 y = 2", `expected newline, got "y"`},
		{"while True: pass", `expected newline, got "pass"`},
		{"while True\n    pass", `expected :, got "newline"`},
		{"while True:\npass", `expected indent, got "pass"`},
		{"x = [1, 2", `expected ], got "end of input"`},
		{"xs = []\nf = xs.append", "method append must be called"},
		{"xs.1", `expected identifier, got "1"`},
		{"x = while", `unexpected "while"`},
		{"x = 1.5", `expected identifier, got "5"`},
		{"def f():\n    pass", `expected newline, got "f"`},
		{"if x:\n    pass", `expected newline, got "x"`},
		{"for i in xs:\n    pass", `expected newline, got "i"`},
		{"x += 1", `unexpected "="`},
		{"x = -1", `unexpected "-"`},
		{"x = {}", `unexpected character "{"`},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			vm := NewVM(nil)
			_, err := vm.RunSource(c.src)
			var se *SyntaxError
			if !errors.As(err, &se) || !strings.Contains(err.Error(), c.want) || vm.Steps != 0 {
				t.Errorf("%q: error %v after %d steps, want a syntax error containing %q", c.src, err, vm.Steps, c.want)
			}
		})
	}
}

// TestStepLimit: MaxSteps admits a program that takes exactly that many
// steps, and stops one that needs one more at MaxSteps+1.
func TestStepLimit(t *testing.T) {
	vm := NewVM(nil)
	vm.MaxSteps = 10_000
	_, err := vm.RunSource(`
while True:
    pass
`)
	if err != ErrTooManySteps {
		t.Fatalf("got %v, want ErrTooManySteps", err)
	}
	const src = "print('py in crun')" // 6 steps
	for _, c := range []struct {
		max   uint64
		err   error
		steps uint64
	}{{0, nil, 6}, {6, nil, 6}, {5, ErrTooManySteps, 6}, {1, ErrTooManySteps, 2}} {
		vm := NewVM(nil)
		vm.MaxSteps = c.max
		if _, err := vm.RunSource(src); err != c.err || vm.Steps != c.steps {
			t.Errorf("MaxSteps %d: %v after %d steps, want %v after %d", c.max, err, vm.Steps, c.err, c.steps)
		}
	}
}
