// Command tier1shapes prices tier 1's closures on the dispatch ledger's
// kernels. It builds the exec test binary with -covermode=count, runs each
// TestTier1DispatchLedger row alone under it, and prints one markdown table:
// a row per closure body in the tier-1 builders (named by its builder and
// the case, or the if, it is built under), a column per kernel, and in each
// cell the calls that body took. A body no kernel calls is a specialisation
// no kernel pays for. The fib row's figures include its first call, which
// the ledger itself does not count.
//
// Run it from the module root: go run ./internal/wasm/exec/testdata/tier1shapes
// (make tier1-shapes).
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

const pkgDir = "internal/wasm/exec"

// closure is one tier-1 closure body: its name and the source span of its
// body, which contains every coverage block it owns.
type closure struct {
	name       string
	file       string
	start, end token.Position
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tier1shapes:", err)
		os.Exit(1)
	}
}

func run() error {
	closures, err := parseClosures()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "tier1shapes")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "exec.test")
	if err := goCmd("test", "-c", "-covermode=count", "-o", bin, "./"+pkgDir).Run(); err != nil {
		return fmt.Errorf("build test binary: %w", err)
	}
	kernels, err := ledgerRows(bin)
	if err != nil {
		return err
	}
	hits := make([][]uint64, len(closures))
	for i := range hits {
		hits[i] = make([]uint64, len(kernels))
	}
	for k, name := range kernels {
		prof := filepath.Join(tmp, name+".cov")
		cmd := exec.Command(bin, "-test.count=1", "-test.run", "^TestTier1DispatchLedger$/^"+regexp.QuoteMeta(name)+"$",
			"-test.coverprofile="+prof)
		cmd.Dir, cmd.Stderr = pkgDir, os.Stderr
		if out, err := cmd.Output(); err != nil {
			return fmt.Errorf("ledger row %s: %v\n%s", name, err, out)
		}
		if err := readProfile(prof, closures, hits, k); err != nil {
			return err
		}
	}
	printTable(closures, kernels, hits)
	return nil
}

func goCmd(args ...string) *exec.Cmd {
	goBin := os.Getenv("GO")
	if goBin == "" {
		goBin = "go"
	}
	cmd := exec.Command(goBin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd
}

// ledgerRows lists TestTier1DispatchLedger's subtests in table order.
func ledgerRows(bin string) ([]string, error) {
	cmd := exec.Command(bin, "-test.count=1", "-test.run", "^TestTier1DispatchLedger$", "-test.v")
	cmd.Dir = pkgDir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ledger: %v\n%s", err, out)
	}
	var rows []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "=== RUN   TestTier1DispatchLedger/"); ok {
			rows = append(rows, name)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("ledger ran no rows")
	}
	return rows, nil
}

// parseClosures finds every t1op literal (func(fr *t1frame) int) in the
// tier-1 sources.
func parseClosures() ([]closure, error) {
	files, err := filepath.Glob(filepath.Join(pkgDir, "tier1*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []closure
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var stack []ast.Node // the nodes enclosing n
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if fl, ok := n.(*ast.FuncLit); ok && isT1op(fl) {
					out = append(out, closure{
						name:  fd.Name.Name + " " + label(stack, fl),
						file:  filepath.Base(fset.Position(fl.Pos()).Filename),
						start: fset.Position(fl.Body.Lbrace),
						end:   fset.Position(fl.Body.Rbrace),
					})
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return out, nil
}

func isT1op(fl *ast.FuncLit) bool {
	p, r := fl.Type.Params.List, fl.Type.Results
	if len(p) != 1 || len(p[0].Names) > 1 || r == nil || len(r.List) != 1 {
		return false
	}
	star, ok := p[0].Type.(*ast.StarExpr)
	return ok && types.ExprString(star.X) == "t1frame" && types.ExprString(r.List[0].Type) == "int"
}

// label names a closure by the case clauses it is built under, outermost
// first, and the if branch it is built in when that is the innermost; "-"
// for one built under neither.
func label(path []ast.Node, fl *ast.FuncLit) string {
	var parts []string
	for i, n := range path {
		switch n := n.(type) {
		case *ast.CaseClause:
			var s []string
			for _, e := range n.List {
				s = append(s, strings.TrimPrefix(strings.TrimPrefix(types.ExprString(e), "wasm."), "Op"))
			}
			if s == nil {
				s = []string{"default"}
			}
			parts = append(parts, strings.Join(s, ","))
		case *ast.IfStmt:
			if innermost(path[i+1:]) {
				c := types.ExprString(n.Cond)
				if n.Else != nil && n.Else.Pos() <= fl.Pos() {
					c = "!(" + c + ")"
				}
				parts = append(parts, c)
			}
		}
	}
	if parts == nil {
		return "-"
	}
	return strings.Join(parts, "/")
}

// innermost reports that no case clause or if statement is on path.
func innermost(path []ast.Node) bool {
	for _, n := range path {
		switch n.(type) {
		case *ast.CaseClause, *ast.IfStmt:
			return false
		}
	}
	return true
}

// readProfile adds each closure's calls in one coverage profile to column
// k: the count of the first block of its body.
func readProfile(path string, closures []closure, hits [][]uint64, k int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type block struct{ line, col int }
	first := make([]block, len(closures))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// file:l0.c0,l1.c1 statements count
		line := sc.Text()
		colon := strings.LastIndexByte(line, ':')
		if colon < 0 || !strings.HasPrefix(line, "wasmcontainers/") {
			continue
		}
		file := filepath.Base(line[:colon])
		var l0, c0, l1, c1, stmts int
		var count uint64
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &l0, &c0, &l1, &c1, &stmts, &count); err != nil {
			return fmt.Errorf("%s: %q: %v", path, line, err)
		}
		for i, c := range closures {
			if c.file != file || !within(c, l0, c0) {
				continue
			}
			if b := first[i]; b.line == 0 || l0 < b.line || l0 == b.line && c0 < b.col {
				first[i] = block{l0, c0}
				hits[i][k] = count
			}
		}
	}
	return sc.Err()
}

func within(c closure, line, col int) bool {
	after := line > c.start.Line || line == c.start.Line && col >= c.start.Column
	before := line < c.end.Line || line == c.end.Line && col <= c.end.Column
	return after && before
}

func printTable(closures []closure, kernels []string, hits [][]uint64) {
	fmt.Printf("| closure | %s |\n", strings.Join(kernels, " | "))
	fmt.Printf("|---|%s\n", strings.Repeat("---:|", len(kernels)))
	unpaid := 0
	for i, c := range closures {
		cells := make([]string, len(kernels))
		called := false
		for k, h := range hits[i] {
			cells[k] = strconv.FormatUint(h, 10)
			called = called || h > 0
		}
		if !called {
			unpaid++
		}
		fmt.Printf("| `%s` | %s |\n", c.name, strings.Join(cells, " | "))
	}
	fmt.Printf("\n%d closure bodies, %d called by no kernel.\n", len(closures), unpaid)
}
