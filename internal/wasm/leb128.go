package wasm

import (
	"errors"
	"fmt"
)

// LEB128 encoding/decoding as specified by the WebAssembly binary format.
// Unsigned and signed variants are bounded to the bit width of the target
// integer type; over-long or out-of-range encodings are rejected, matching
// the spec's canonical-validation rules for integer immediates.

var (
	errLEBTooLong    = errors.New("wasm: integer representation too long")
	errLEBTooLarge   = errors.New("wasm: integer too large")
	errUnexpectedEOF = errors.New("wasm: unexpected end of section or function")
)

// readU32 decodes an unsigned LEB128 value of at most 32 bits from b,
// returning the value and the number of bytes consumed.
func readU32(b []byte) (uint32, int, error) {
	var result uint32
	var shift uint
	for i := 0; i < 5; i++ {
		if i >= len(b) {
			return 0, 0, errUnexpectedEOF
		}
		c := b[i]
		if i == 4 && c > 0x0f {
			return 0, 0, errLEBTooLarge
		}
		result |= uint32(c&0x7f) << shift
		if c&0x80 == 0 {
			return result, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, errLEBTooLong
}

// readU64 decodes an unsigned LEB128 value of at most 64 bits.
func readU64(b []byte) (uint64, int, error) {
	var result uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if i >= len(b) {
			return 0, 0, errUnexpectedEOF
		}
		c := b[i]
		if i == 9 && c > 0x01 {
			return 0, 0, errLEBTooLarge
		}
		result |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return result, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, errLEBTooLong
}

// readS32 decodes a signed LEB128 value of at most 32 bits.
func readS32(b []byte) (int32, int, error) {
	var result int32
	var shift uint
	for i := 0; i < 5; i++ {
		if i >= len(b) {
			return 0, 0, errUnexpectedEOF
		}
		c := b[i]
		if i == 4 {
			// Last byte: only 4 payload bits remain; the upper bits must be a
			// proper sign extension.
			if c&0x80 != 0 {
				return 0, 0, errLEBTooLong
			}
			high := c & 0x78 // bits 3..6 beyond the 32-bit range (bit 3 is the sign)
			if high != 0 && high != 0x78 {
				return 0, 0, errLEBTooLarge
			}
		}
		result |= int32(c&0x7f) << shift
		shift += 7
		if c&0x80 == 0 {
			if shift < 32 && c&0x40 != 0 {
				result |= -1 << shift
			}
			return result, i + 1, nil
		}
	}
	return 0, 0, errLEBTooLong
}

// readS64 decodes a signed LEB128 value of at most 64 bits.
func readS64(b []byte) (int64, int, error) {
	var result int64
	var shift uint
	for i := 0; i < 10; i++ {
		if i >= len(b) {
			return 0, 0, errUnexpectedEOF
		}
		c := b[i]
		if i == 9 {
			if c&0x80 != 0 {
				return 0, 0, errLEBTooLong
			}
			if c != 0x00 && c != 0x7f {
				return 0, 0, errLEBTooLarge
			}
		}
		result |= int64(c&0x7f) << shift
		shift += 7
		if c&0x80 == 0 {
			if shift < 64 && c&0x40 != 0 {
				result |= -1 << shift
			}
			return result, i + 1, nil
		}
	}
	return 0, 0, errLEBTooLong
}

// readS33 decodes the signed 33-bit LEB128 used for block types.
func readS33(b []byte) (int64, int, error) {
	var result int64
	var shift uint
	for i := 0; i < 5; i++ {
		if i >= len(b) {
			return 0, 0, errUnexpectedEOF
		}
		c := b[i]
		if i == 4 {
			if c&0x80 != 0 {
				return 0, 0, errLEBTooLong
			}
			high := c & 0x70
			if high != 0 && high != 0x70 {
				return 0, 0, errLEBTooLarge
			}
		}
		result |= int64(c&0x7f) << shift
		shift += 7
		if c&0x80 == 0 {
			if shift < 33 && c&0x40 != 0 {
				result |= -1 << shift
			}
			return result, i + 1, nil
		}
	}
	return 0, 0, errLEBTooLong
}

// appendU32 appends the unsigned LEB128 encoding of v to dst.
func appendU32(dst []byte, v uint32) []byte {
	for {
		c := byte(v & 0x7f)
		v >>= 7
		if v != 0 {
			c |= 0x80
		}
		dst = append(dst, c)
		if v == 0 {
			return dst
		}
	}
}

// appendU64 appends the unsigned LEB128 encoding of v to dst.
func appendU64(dst []byte, v uint64) []byte {
	for {
		c := byte(v & 0x7f)
		v >>= 7
		if v != 0 {
			c |= 0x80
		}
		dst = append(dst, c)
		if v == 0 {
			return dst
		}
	}
}

// appendS32 appends the signed LEB128 encoding of v to dst.
func appendS32(dst []byte, v int32) []byte {
	return appendS64(dst, int64(v))
}

// appendS64 appends the signed LEB128 encoding of v to dst.
func appendS64(dst []byte, v int64) []byte {
	for {
		c := byte(v & 0x7f)
		v >>= 7
		if (v == 0 && c&0x40 == 0) || (v == -1 && c&0x40 != 0) {
			return append(dst, c)
		}
		dst = append(dst, c|0x80)
	}
}

// decodeError annotates a low-level decoding error with a byte offset.
func decodeError(off int, err error) error {
	return fmt.Errorf("wasm: at offset %d: %w", off, err)
}

// ReadU32 is the exported form of readU32, used by the exec compiler.
func ReadU32(b []byte) (uint32, int, error) { return readU32(b) }

// ReadS32 is the exported form of readS32.
func ReadS32(b []byte) (int32, int, error) { return readS32(b) }

// ReadS64 is the exported form of readS64.
func ReadS64(b []byte) (int64, int, error) { return readS64(b) }

// ReadS33 is the exported form of readS33 (block types).
func ReadS33(b []byte) (int64, int, error) { return readS33(b) }
