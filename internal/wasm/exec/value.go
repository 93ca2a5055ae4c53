// Package exec implements a WebAssembly interpreter over modules decoded by
// the wasm package: stores, instances, linear memories, tables, globals, host
// functions, and a pre-compiled stack interpreter with resolved branch
// targets. It supports the MVP instruction set plus sign-extension and
// saturating float-to-int conversions, deterministic traps, call-depth
// limits, and optional fuel metering.
package exec

import "math"

// Value is a raw 64-bit representation of any WebAssembly value. Integer
// values are stored directly (i32 zero-extended); floats are stored as their
// IEEE-754 bit patterns.
type Value = uint64

// I32 converts a Go int32 into a Value.
func I32(v int32) Value { return uint64(uint32(v)) }

// I64 converts a Go int64 into a Value.
func I64(v int64) Value { return uint64(v) }

// F32 converts a Go float32 into a Value.
func F32(v float32) Value { return uint64(math.Float32bits(v)) }

// F64 converts a Go float64 into a Value.
func F64(v float64) Value { return math.Float64bits(v) }

// AsI32 extracts an i32 from a Value.
func AsI32(v Value) int32 { return int32(uint32(v)) }

// AsU32 extracts an unsigned i32 from a Value.
func AsU32(v Value) uint32 { return uint32(v) }

// AsI64 extracts an i64 from a Value.
func AsI64(v Value) int64 { return int64(v) }

// AsF32 extracts an f32 from a Value.
func AsF32(v Value) float32 { return math.Float32frombits(uint32(v)) }

// AsF64 extracts an f64 from a Value.
func AsF64(v Value) float64 { return math.Float64frombits(v) }
