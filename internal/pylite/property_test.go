package pylite

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wasmcontainers/internal/workloads"
)

// lit writes v as a pylite expression; the language has no unary minus.
func lit(v int64) string {
	if v < 0 {
		return fmt.Sprintf("(0 - %d)", -v)
	}
	return fmt.Sprint(v)
}

// Property: % takes the sign of the divisor (Python's floored modulo),
// checked against a float reference, and ints print as Go formats them.
func TestPropertyIntegerMod(t *testing.T) {
	f := func(a, b int32) bool {
		if b == 0 {
			return true
		}
		var out bytes.Buffer
		vm := NewVM(&out)
		if _, err := vm.RunSource(fmt.Sprintf("print(%s %% %s, %s)", lit(int64(a)), lit(int64(b)), lit(int64(a)))); err != nil {
			return false
		}
		want := int64(a) - int64(b)*int64(math.Floor(float64(a)/float64(b)))
		return out.String() == fmt.Sprintf("%d %d\n", want, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: appending ints to a list prints them back in order, and the
// heap grows by the literal's 16 bytes plus 8 per append.
func TestPropertyListRoundTrip(t *testing.T) {
	f := func(xs []int16) bool {
		src := "xs = []\n"
		want := make([]string, len(xs))
		for i, x := range xs {
			src += "xs.append(" + lit(int64(x)) + ")\n"
			want[i] = fmt.Sprint(x)
		}
		var out bytes.Buffer
		vm := NewVM(&out)
		if _, err := vm.RunSource(src + "print(xs)"); err != nil {
			return false
		}
		return out.String() == "["+strings.Join(want, ", ")+"]\n" && vm.HeapBytes == int64(16+8*len(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the floored div/mod identity a == q*b + r, with q read back
// from pylite's `(a - a % b) / b` (a whole float) and r from `a % b`, which
// has the sign of the divisor and is smaller than it in magnitude.
func TestPropertyDivModIdentity(t *testing.T) {
	f := func(a, b int32) bool {
		if b == 0 {
			return true
		}
		A, B := lit(int64(a)), lit(int64(b))
		var out bytes.Buffer
		vm := NewVM(&out)
		if _, err := vm.RunSource(fmt.Sprintf("print((%s - %s %% %s) / %s, %s %% %s)", A, A, B, B, A, B)); err != nil {
			return false
		}
		var q float64
		var r int64
		if _, err := fmt.Sscan(out.String(), &q, &r); err != nil || q != math.Trunc(q) {
			return false
		}
		if r != 0 && (r < 0) != (b < 0) || r >= int64(b) && b > 0 || r <= int64(b) && b < 0 {
			return false
		}
		return int64(q)*int64(b)+r == int64(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: print writes an int as Go's decimal, a string as is, and None,
// True and False by name, alone or inside a list.
func TestPropertyStrFormatting(t *testing.T) {
	f := func(v int64, s string) bool {
		if v == math.MinInt64 {
			return true // not writable: the language has no unary minus
		}
		s = strings.Map(func(r rune) rune {
			if r == '"' || r == '\\' || r == '\n' || r == '\r' {
				return -1
			}
			return r
		}, s)
		var out bytes.Buffer
		vm := NewVM(&out)
		if _, err := vm.RunSource(fmt.Sprintf(`print(%s, "%s", None, True, False, [%s, None, True, False])`, lit(v), s, lit(v))); err != nil {
			return false
		}
		return out.String() == fmt.Sprintf("%d %s None True False [%d, None, True, False]\n", v, s, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the VM is deterministic — the same loop gives the same output,
// Steps and HeapBytes on two fresh VMs — and computes what Go does.
func TestPropertyDeterminism(t *testing.T) {
	f := func(n uint8, m uint8) bool {
		mod := int64(m%7) + 2
		src := fmt.Sprintf(`
acc = 0
i = 0
xs = []
while i < %d:
    acc = acc + i %% %d * i - 1
    xs.append(acc)
    i = i + 1
print(acc, xs)
`, n, mod)
		run := func() (string, uint64, int64) {
			var out bytes.Buffer
			vm := NewVM(&out)
			if _, err := vm.RunSource(src); err != nil {
				return err.Error(), 0, 0
			}
			return out.String(), vm.Steps, vm.HeapBytes
		}
		var acc int64
		xs := make([]string, n)
		for i := int64(0); i < int64(n); i++ {
			acc += i%mod*i - 1
			xs[i] = fmt.Sprint(acc)
		}
		o1, s1, h1 := run()
		o2, s2, h2 := run()
		return o1 == fmt.Sprintf("%d [%s]\n", acc, strings.Join(xs, ", ")) && o1 == o2 && s1 == s2 && h1 == h2 && h1 == int64(16+8*int(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPyliteRunSource: with MaxSteps set, RunSource never panics, fails
// only with a *SyntaxError, a *RuntimeError or ErrTooManySteps, stops by
// MaxSteps+1 steps, and is deterministic — the same source run twice gives
// the same stdout, error, Steps and HeapBytes. The seeds are the scripts
// TestMinimalServiceApp pins.
func FuzzPyliteRunSource(f *testing.F) {
	const maxSteps = 10_000
	for _, src := range []string{workloads.MinimalServicePy, "print('py in crun')", "x = 1 / 0", "x = (", "while True:\n    pass"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		run := func() (string, string, uint64, int64) {
			var out bytes.Buffer
			vm := NewVM(&out)
			vm.MaxSteps = maxSteps
			_, err := vm.RunSource(src)
			var se *SyntaxError
			var re *RuntimeError
			if err != nil && !errors.As(err, &se) && !errors.As(err, &re) && !errors.Is(err, ErrTooManySteps) {
				t.Fatalf("unexpected error %T: %v", err, err)
			}
			if vm.Steps > maxSteps+1 {
				t.Fatalf("%d steps past MaxSteps %d", vm.Steps, maxSteps)
			}
			return out.String(), fmt.Sprint(err), vm.Steps, vm.HeapBytes
		}
		out1, err1, steps1, heap1 := run()
		out2, err2, steps2, heap2 := run()
		if out1 != out2 || err1 != err2 || steps1 != steps2 || heap1 != heap2 {
			t.Fatalf("nondeterministic: (%q, %s, %d, %d) vs (%q, %s, %d, %d)", out1, err1, steps1, heap1, out2, err2, steps2, heap2)
		}
	})
}
