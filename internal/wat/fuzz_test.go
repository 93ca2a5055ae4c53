package wat_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wat"
	"wasmcontainers/internal/workloads"
)

// watTestSources returns every string literal in wat_test.go: the sources
// of its cases, plus some names and messages the assembler rejects.
func watTestSources(f *testing.F) []string {
	file, err := parser.ParseFile(token.NewFileSet(), "wat_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// FuzzWATAssemble: the assembler never panics on any text, and a module it
// accepts validates without panicking and round-trips through the binary
// format: its encoding decodes to a module that encodes to the same bytes.
// Seeded with every workload's WAT and every string in wat_test.go.
func FuzzWATAssemble(f *testing.F) {
	for _, src := range []string{
		workloads.MinimalServiceWAT, workloads.CPUBoundWAT, workloads.MemoryBoundWAT,
		workloads.EchoArgsWAT, workloads.FileIOWAT, workloads.RequestHandlerWAT,
		// Duplicate export names: once assembled and validated, then
		// refused by the decoder.
		`(module (func (export "a")) (func (export "a")))`,
		`(module(memory(export"")0)(func(export"")))`,
	} {
		f.Add(src)
	}
	for _, src := range watTestSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := wat.Compile(src)
		if err != nil {
			return
		}
		if err := wasm.Validate(m); err != nil {
			t.Fatalf("Compile accepted a module Validate rejects: %v", err)
		}
		enc := wasm.Encode(m)
		m2, err := wasm.Decode(enc)
		if err != nil {
			t.Fatalf("decoding the encoding of an assembled module: %v", err)
		}
		if enc2 := wasm.Encode(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}
