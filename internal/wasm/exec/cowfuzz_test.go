package exec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wat"
)

// The copy-on-write oracle. A fuzz input picks how much of the image is
// stored (its first byte: nothing, part of a page, one page, a page and a
// half, or all of it — the contents are non-zero up to there and zero after)
// and is then a program of read and write steps over two memories attached to
// one shared baseline image. Each memory is shadowed by a cowModel — a plain
// private []byte with a full-copy reset, no aliasing, no free-list — and
// after every step both memories must equal their models (contents, Pages,
// DirtyPages, PrivateBytes, and whether they currently hold a private buffer
// at all), the step's own result must match, and the image must still be the
// bytes it was built from. The same programs run three ways: straight
// through the Memory API, and through real guest loads / stores / memory.fill
// / memory.copy / memory.grow at tier 0 and at tier 1.

// cowMaxPages lets a memory grow past 64 pages, where its dirty bitmap moves
// from the word inside Memory to an allocated array.
const (
	cowMinPages  = 2
	cowMaxPages  = 66
	cowAddrPages = 8 // cowAddr reaches pages 0..7
	cowStepLen   = 8
)

type cowOp byte

const (
	cowStore8 cowOp = iota
	cowStore16
	cowStore32
	cowStore64
	cowWrite
	cowWriteString
	cowWritableView
	cowWriteUint32
	cowWriteUint64
	cowGrow
	cowFill
	cowCopy
	cowReset
	cowRead
	cowView
	cowReadString
	cowReadUint32
	cowReadUint64
	cowLoad
	cowNumOps
)

// cowPrefixes are the stored lengths an input's first byte chooses among:
// empty, ending mid-page, ending on a page boundary, a multi-page image
// ending mid-page, and the whole image.
var cowPrefixes = []int{0, 1000, wasm.PageSize, wasm.PageSize + 40000, cowMinPages * wasm.PageSize}

const cowWhole = 4 // index of the whole image in cowPrefixes

// cowLens are the lengths a step can name: empty, access-width, page-sized
// and page-straddling ones, and two that wrap dst+n in 32-bit arithmetic.
var cowLens = []uint32{0, 1, 2, 3, 4, 5, 8, 9, 16, 255, 4096, 65535, 65536, 65537,
	2 * 65536, 3 * 65536, 0xffffffff, 0xfffffff0}

// cowStep is one decoded step. Addresses are a page index (0..7) plus a
// signed byte offset, which puts them on and around page boundaries and —
// below page 0 — near 4 GiB; a page byte with bit 3 set instead offsets from
// the end of the image's stored bytes. A grow adds far (the last byte, mod
// 64) pages to its small delta, so one step can cross the bitmap's 64-page
// edge.
type cowStep struct {
	op        cowOp
	who       int
	addr, src uint32
	n         uint32
	val       uint64
	far       uint32
}

// cowAtPrefix is the page byte that addresses relative to the end of the
// stored bytes.
const cowAtPrefix = 8

func cowAddr(prefix int, page, off byte) uint32 {
	base := int64(page%cowAddrPages) << 16
	if page&cowAtPrefix != 0 {
		base = int64(prefix)
	}
	return uint32(base + int64(int8(off)))
}

// decodeCowProgram returns the stored length of the image and the steps.
func decodeCowProgram(data []byte) (int, []cowStep) {
	if len(data) == 0 {
		return cowPrefixes[cowWhole], nil
	}
	prefix := cowPrefixes[int(data[0])%len(cowPrefixes)]
	var steps []cowStep
	for data = data[1:]; len(data) >= cowStepLen && len(steps) < 64; data = data[cowStepLen:] {
		steps = append(steps, cowStep{
			op:   cowOp(data[0]&0x7f) % cowNumOps,
			who:  int(data[0] >> 7),
			addr: cowAddr(prefix, data[1], data[2]),
			n:    cowLens[int(data[3])%len(cowLens)],
			src:  cowAddr(prefix, data[4], data[5]),
			val:  uint64(data[6])*0x0101010101010101 ^ uint64(data[7])<<20,
			far:  uint32(data[7] % 64),
		})
	}
	return prefix, steps
}

// cowProg assembles seed programs in the encoding decodeCowProgram reads:
// the index of the prefix, then the steps.
type cowProg []byte

// withPrefix is the same program over another stored length.
func (p cowProg) withPrefix(i int) cowProg {
	return append(cowProg{byte(i)}, p[1:]...)
}

func (p cowProg) step(op cowOp, who int, page byte, off int8, lenIdx int, srcPage byte, srcOff int8, v0, v1 byte) cowProg {
	return append(p, byte(op)|byte(who)<<7, page, byte(off), byte(lenIdx), srcPage, byte(srcOff), v0, v1)
}

func cowLenIdx(n uint32) int {
	for i, l := range cowLens {
		if l == n {
			return i
		}
	}
	panic(fmt.Sprintf("length %d is not in cowLens", n))
}

// cowSeeds is the committed corpus, one program per rule of the design, over
// the whole image; under plain go test FuzzMemoryCoW runs them as
// seed#0..6, in this order, then the short-prefix seeds from
// cowPrefixSeeds.
func cowSeeds() []cowProg {
	n := cowLenIdx
	p := cowProg{cowWhole}
	return []cowProg{
		// Every width at a page-straddling address, on both memories.
		p.
			step(cowStore8, 0, 1, -1, 0, 0, 0, 0xa1, 1).
			step(cowStore16, 0, 1, -1, 0, 0, 0, 0xa2, 2).
			step(cowStore32, 1, 1, -2, 0, 0, 0, 0xa3, 3).
			step(cowStore64, 1, 1, -5, 0, 0, 0, 0xa4, 4).
			step(cowStore64, 0, 2, -7, 0, 0, 0, 0xa5, 5). // straddles the end: OOB
			step(cowStore8, 0, 0, -1, 0, 0, 0, 0xa6, 6).  // 4 GiB - 1: OOB
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0),
		// Dirty every baseline page, reset (re-alias), write again: the
		// buffer cycles through the free-list between the two memories.
		p.
			step(cowWrite, 0, 0, 100, n(65536), 0, 0, 7, 0).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowStore32, 1, 0, 4, 0, 0, 0, 9, 0).
			step(cowStore32, 1, 1, 4, 0, 0, 0, 9, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0).
			step(cowStore8, 0, 1, 0, 0, 0, 0, 3, 0).
			step(cowStore8, 1, 0, 0, 0, 0, 0, 4, 0),
		// One of two pages dirty: the reset copies back and stays private.
		p.
			step(cowWriteUint64, 0, 1, 8, 0, 0, 0, 1, 2).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowWriteUint32, 0, 0, 8, 0, 0, 0, 3, 4).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0),
		// Grow while aliased, touch grown and baseline pages, over-grow,
		// reset, grow again — within capacity, then into the sibling's parked
		// buffer: either way stale bytes must read as zero.
		p.
			step(cowGrow, 0, 0, 0, 3, 0, 0, 0, 0).
			step(cowStore64, 0, 4, 16, 0, 0, 0, 0xee, 1).
			step(cowGrow, 0, 0, 0, 4, 0, 0, 0, 63).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowGrow, 0, 0, 0, 4, 0, 0, 0, 0).
			step(cowStore64, 0, 2, 8, 0, 0, 0, 0xdd, 1).
			step(cowStore8, 0, 0, 1, 0, 0, 0, 5, 0).
			step(cowStore8, 0, 1, 1, 0, 0, 0, 5, 0).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowGrow, 1, 0, 0, 1, 0, 0, 0, 0).
			step(cowGrow, 1, 0, 0, 0, 0, 0, 0, 0),
		// Bulk ops: overlapping copies both ways, empty ones at and past the
		// end, lengths that wrap 32-bit sums, a fill across a page boundary.
		p.
			step(cowFill, 0, 1, -3, n(9), 0, 0, 0x5a, 0).
			step(cowCopy, 0, 1, 0, n(255), 1, -3, 0, 0).
			step(cowCopy, 0, 1, -3, n(255), 1, 0, 0, 0).
			step(cowCopy, 1, 0, 0, n(65537), 0, 100, 0, 0).
			step(cowFill, 1, 2, 0, n(0), 0, 0, 1, 0).
			step(cowFill, 1, 2, 1, n(0), 0, 0, 1, 0).
			step(cowCopy, 1, 0, 0, n(0), 2, 1, 0, 0).
			step(cowFill, 0, 0, 16, n(0xffffffff), 0, 0, 1, 0).
			step(cowCopy, 0, 0, 16, n(0xfffffff0), 0, 32, 0, 0).
			step(cowCopy, 1, 3, 0, n(4), 0, 0, 0, 0). // dst OOB, src fine
			step(cowFill, 1, 0, 0, n(2*65536), 0, 0, 0, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0),
		// Host write paths, including empty writes that must not materialise.
		p.
			step(cowWrite, 0, 1, 0, n(0), 0, 0, 1, 0).
			step(cowWritableView, 0, 2, 0, n(0), 0, 0, 1, 0).
			step(cowWriteString, 0, 2, 1, n(0), 0, 0, 1, 0).
			step(cowWritableView, 0, 1, -8, n(16), 0, 0, 0x11, 0).
			step(cowWriteString, 1, 0, 1, n(65536), 0, 0, 0x22, 0).
			step(cowWrite, 1, 1, 0, n(65537), 0, 0, 0x33, 0).
			step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0),
		// The dirty bitmap's edge: grow the aliased memory to exactly 64
		// pages (one inline word), write, cross to 65 (the bitmap moves to an
		// allocated array), write a baseline page and a grown one, reset
		// (every baseline page dirty: re-alias), grow across again, dirty only
		// grown pages, reset (copy-back path), over-grow, then grow within
		// the kept buffer, write and reset once more.
		p.
			step(cowGrow, 1, 0, 0, 4, 0, 0, 0, 58).
			step(cowStore8, 1, 1, 3, 0, 0, 0, 0x71, 0).
			step(cowGrow, 1, 0, 0, 1, 0, 0, 0, 0).
			step(cowStore32, 1, 1, -2, 0, 0, 0, 0x72, 0).
			step(cowWrite, 1, 7, -4, n(16), 0, 0, 0x73, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0).
			step(cowGrow, 1, 0, 0, 4, 0, 0, 0, 60).
			step(cowStore64, 1, 5, 8, 0, 0, 0, 0x74, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0).
			step(cowGrow, 1, 0, 0, 2, 0, 0, 0, 63).
			step(cowGrow, 1, 0, 0, 0, 0, 0, 0, 1).
			step(cowStore8, 1, 1, 0, 0, 0, 0, 0x75, 0).
			step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0),
	}
}

// cowPrefixSeeds runs every whole-image seed over each shorter stored length,
// then adds programs that read, view and store across the end of the stored
// bytes, in each short length.
func cowPrefixSeeds() []cowProg {
	n := cowLenIdx
	var out []cowProg
	for i := range cowPrefixes[:cowWhole] {
		for _, prog := range cowSeeds() {
			out = append(out, prog.withPrefix(i))
		}
	}
	for i := range cowPrefixes[:cowWhole] {
		p := cowProg{byte(i)}
		out = append(out,
			// Reads inside the stored bytes keep the memory aliased; one
			// that straddles their end materialises it, and so does a read
			// wholly past them. A reset with no page dirty re-aliases.
			p.
				step(cowLoad, 0, cowAtPrefix, -8, 0, 0, 0, 3, 0).
				step(cowReadUint32, 0, cowAtPrefix, -4, 0, 0, 0, 0, 0).
				step(cowView, 0, cowAtPrefix, -4, n(0), 0, 0, 0, 0).
				step(cowView, 0, cowAtPrefix, -2, n(4), 0, 0, 0, 0).
				step(cowLoad, 1, cowAtPrefix, 5, 0, 0, 0, 2, 0).
				step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
				step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0).
				step(cowRead, 0, cowAtPrefix, -1, n(2), 0, 0, 0, 0).
				step(cowReadString, 1, 1, 0, n(65536), 0, 0, 0, 0),
			// Stores across the end of the stored bytes, then reads of them
			// and of the zeroes after, a reset that copies back, and loads
			// at the end of the memory and past it.
			p.
				step(cowStore32, 0, cowAtPrefix, -2, 0, 0, 0, 0x81, 0).
				step(cowLoad, 0, cowAtPrefix, -4, 0, 0, 0, 3, 0).
				step(cowReadUint64, 0, cowAtPrefix, -3, 0, 0, 0, 0, 0).
				step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
				step(cowReadUint64, 0, cowAtPrefix, -3, 0, 0, 0, 0, 0).
				step(cowStore8, 1, cowAtPrefix, 0, 0, 0, 0, 0x82, 0).
				step(cowCopy, 1, 1, 8, n(16), cowAtPrefix, -8, 0, 0).
				step(cowLoad, 1, 2, -8, 0, 0, 0, 3, 0).
				step(cowLoad, 0, 2, -4, 0, 0, 0, 3, 0).
				step(cowView, 0, 2, -1, n(2), 0, 0, 0, 0).
				step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0),
			// A grow while aliased, a fill past the stored bytes, and an
			// empty copy from past them, which must not materialise.
			p.
				step(cowCopy, 1, 0, 0, n(0), cowAtPrefix, 16, 0, 0).
				step(cowGrow, 0, 0, 0, 1, 0, 0, 0, 0).
				step(cowLoad, 0, 2, 8, 0, 0, 0, 3, 0).
				step(cowFill, 1, cowAtPrefix, 1, n(9), 0, 0, 0x5a, 0).
				step(cowReset, 0, 0, 0, 0, 0, 0, 0, 0).
				step(cowReset, 1, 0, 0, 0, 0, 0, 0, 0),
		)
	}
	return out
}

// cowModel is the reference: private bytes, a dirty set, reset by full copy.
type cowModel struct {
	base    []byte
	data    []byte
	dirty   map[uint64]bool
	private bool // the design's rule for when a Memory holds its own buffer
	// prefix is the image's stored length: a read past it materialises an
	// aliased memory.
	prefix int
}

func newCowModel(base []byte) *cowModel {
	return &cowModel{base: base, data: bytes.Clone(base), dirty: map[uint64]bool{},
		prefix: len(bytes.TrimRight(base, "\x00"))}
}

// read returns [ea, ea+n) as a result string, or false out of bounds.
func (c *cowModel) read(ea, n uint64) string {
	if ea+n > uint64(len(c.data)) {
		return cowReadResult(nil, false)
	}
	if n > 0 && ea+n > uint64(c.prefix) {
		c.private = true
	}
	return cowReadResult(c.data[ea:ea+n], true)
}

// cowReadResult renders a read's result for comparison.
func cowReadResult(b []byte, ok bool) string {
	if !ok {
		return "out of bounds"
	}
	return fmt.Sprintf("%x", b)
}

// write applies b at ea, reporting false (and changing nothing) out of bounds.
func (c *cowModel) write(ea uint64, b []byte) bool {
	if ea+uint64(len(b)) > uint64(len(c.data)) {
		return false
	}
	if len(b) == 0 {
		return true
	}
	copy(c.data[ea:], b)
	for p := ea >> 16; p <= (ea+uint64(len(b))-1)>>16; p++ {
		c.dirty[p] = true
	}
	c.private = true
	return true
}

func (c *cowModel) grow(delta uint32) int32 {
	cur := len(c.data) / wasm.PageSize
	if delta == 0 {
		return int32(cur)
	}
	if uint64(cur)+uint64(delta) > cowMaxPages {
		return -1
	}
	c.data = append(c.data, make([]byte, int(delta)*wasm.PageSize)...)
	for p := cur; p < cur+int(delta); p++ {
		c.dirty[uint64(p)] = true
	}
	c.private = true
	return int32(cur)
}

// reset returns how many baseline pages were rewound.
func (c *cowModel) reset() int {
	basePages := uint64(len(c.base) / wasm.PageSize)
	n := 0
	for p := range c.dirty {
		if p < basePages {
			n++
		}
	}
	if n == 0 || uint64(n) == basePages {
		c.private = false
	}
	c.data = bytes.Clone(c.base)
	c.dirty = map[uint64]bool{}
	return n
}

// cowGuest is how a driver performs the operations a guest can: directly on
// the Memory, or through an instance's exports.
type cowGuest struct {
	mem   *Memory
	load  func(width int, ea uint32) (uint64, bool)
	store func(width int, ea uint32, v uint64) bool
	fill  func(dst uint32, val byte, n uint32) bool
	copy  func(dst, src, n uint32) bool
	grow  func(delta uint32) int32
}

func directGuest(m *Memory) cowGuest {
	return cowGuest{
		mem:   m,
		load:  func(width int, ea uint32) (uint64, bool) { return m.load(ea, 0, width) },
		store: func(width int, ea uint32, v uint64) bool { return m.storeAt(uint64(ea), width, v) },
		fill:  m.fill,
		copy:  m.copyWithin,
		grow:  m.Grow,
	}
}

// cowBaseContents is the image every run starts from: no zero byte up to
// prefix, so a missed copy-back or a stale recycled buffer shows there, and
// zeroes after it.
func cowBaseContents(prefix int) []byte {
	b := make([]byte, cowMinPages*wasm.PageSize)
	for i := range b[:prefix] {
		b[i] = byte(i*7+i>>8) | 1
	}
	return b
}

var cowMemType = wasm.MemoryType{Limits: wasm.Limits{Min: cowMinPages, Max: cowMaxPages, HasMax: true}}

// directGuests builds the pair from the Memory API alone: the first memory
// donates its buffer as the image, the second arrives through the replay path
// (own bytes, verified equal) and attaches.
func directGuests(t testing.TB, prefix int) ([2]cowGuest, *BaselineImage) {
	base := cowBaseContents(prefix)
	a := NewMemory(cowMemType, 0)
	a.Write(0, base)
	img := a.CaptureBaseline()
	b := NewMemory(cowMemType, 0)
	b.Write(0, base)
	if !b.AttachBaseline(img) {
		t.Fatal("AttachBaseline refused identical contents")
	}
	return [2]cowGuest{directGuest(a), directGuest(b)}, img
}

const cowGuestWAT = `
(module
  (memory (export "memory") 2 66)
  (func (export "ld8") (param i32) (result i64) (i64.load8_u (local.get 0)))
  (func (export "ld16") (param i32) (result i64) (i64.load16_u (local.get 0)))
  (func (export "ld32") (param i32) (result i64) (i64.load32_u (local.get 0)))
  (func (export "ld64") (param i32) (result i64) (i64.load (local.get 0)))
  (func (export "st8") (param i32 i64) (i64.store8 (local.get 0) (local.get 1)))
  (func (export "st16") (param i32 i64) (i64.store16 (local.get 0) (local.get 1)))
  (func (export "st32") (param i32 i64) (i64.store32 (local.get 0) (local.get 1)))
  (func (export "st64") (param i32 i64) (i64.store (local.get 0) (local.get 1)))
  (func (export "fill") (param i32 i32 i32) (memory.fill (local.get 0) (local.get 1) (local.get 2)))
  (func (export "copy") (param i32 i32 i32) (memory.copy (local.get 0) (local.get 1) (local.get 2)))
  (func (export "grow") (param i32) (result i32) (memory.grow (local.get 0))))
`

// instanceGuests builds the pair from two instances of one ModuleCode at the
// given tier: the first instance's memory becomes the image, the second is
// born aliased by InstantiateCompiled's fast path.
func instanceGuests(t testing.TB, tier, prefix int) ([2]cowGuest, *BaselineImage) {
	m, err := wat.Compile(cowGuestWAT)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	if tier == 1 {
		mc.SetTierPolicy(TierPolicy{Mode: TierModeEager})
		mc.EnsureTier1()
	}
	var guests [2]cowGuest
	for i := range guests {
		store := NewStore(Config{})
		inst, err := store.InstantiateCompiled(mc, "")
		if err != nil {
			t.Fatal(err)
		}
		mem := inst.Memory()
		if i == 0 {
			mem.Write(0, cowBaseContents(prefix))
		} else if !mem.aliased() {
			t.Fatal("second instance was not instantiated aliased to the published image")
		}
		if mc.EnsureBaseline(mem) == nil {
			t.Fatal("EnsureBaseline returned no image")
		}
		call := func(name string, args ...Value) ([]Value, bool) {
			vals, err := inst.Call(name, args...)
			if got := store.LastInvokeTier(); got != tier {
				t.Fatalf("%s ran at tier %d, want %d", name, got, tier)
			}
			return vals, err == nil
		}
		loads := map[int]string{1: "ld8", 2: "ld16", 4: "ld32", 8: "ld64"}
		stores := map[int]string{1: "st8", 2: "st16", 4: "st32", 8: "st64"}
		guests[i] = cowGuest{
			mem: mem,
			load: func(width int, ea uint32) (uint64, bool) {
				vals, ok := call(loads[width], uint64(ea))
				if !ok {
					return 0, false
				}
				return vals[0], true
			},
			store: func(width int, ea uint32, v uint64) bool {
				_, ok := call(stores[width], uint64(ea), v)
				return ok
			},
			fill: func(dst uint32, val byte, n uint32) bool {
				_, ok := call("fill", uint64(dst), uint64(val), uint64(n))
				return ok
			},
			copy: func(dst, src, n uint32) bool {
				_, ok := call("copy", uint64(dst), uint64(src), uint64(n))
				return ok
			},
			grow: func(delta uint32) int32 {
				vals, _ := call("grow", uint64(delta))
				return AsI32(vals[0])
			},
		}
	}
	return guests, mc.baseline.Load()
}

// runCowProgram executes steps against the guests and their models, checking
// every observable after every step.
func runCowProgram(t testing.TB, guests [2]cowGuest, img *BaselineImage, prefix int, steps []cowStep) {
	base := cowBaseContents(prefix)
	imgSum := sha256.Sum256(img.data)
	if !bytes.Equal(img.contents(), base) || len(img.data) != prefix {
		t.Fatalf("image stores %d bytes, not the %d non-zero bytes of the base contents", len(img.data), prefix)
	}
	models := [2]*cowModel{newCowModel(base), newCowModel(base)}
	for i, st := range steps {
		g, c := guests[st.who], models[st.who]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d %+v: %s", i, st, fmt.Sprintf(format, args...))
		}
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], st.val)
		// Host writes carry a buffer of n bytes; cap it past the addressable
		// pages (out of bounds at any length until the memory has grown
		// beyond them).
		hostN := min(st.n, cowAddrPages*wasm.PageSize+1)
		payload := bytes.Repeat([]byte{byte(st.val) | 1}, int(hostN))
		var got, want any
		switch st.op {
		case cowStore8, cowStore16, cowStore32, cowStore64:
			width := 1 << (st.op - cowStore8)
			got, want = g.store(width, st.addr, st.val), c.write(uint64(st.addr), le[:width])
		case cowWrite:
			got, want = g.mem.Write(st.addr, payload), c.write(uint64(st.addr), payload)
		case cowWriteString:
			got, want = g.mem.WriteString(st.addr, string(payload)), c.write(uint64(st.addr), payload)
		case cowWritableView:
			view, ok := g.mem.WritableView(st.addr, hostN)
			if ok && len(view) != int(hostN) {
				fail("WritableView returned %d bytes, want %d", len(view), hostN)
			}
			copy(view, payload)
			got, want = ok, c.write(uint64(st.addr), payload)
		case cowWriteUint32:
			got, want = g.mem.WriteUint32(st.addr, uint32(st.val)), c.write(uint64(st.addr), le[:4])
		case cowWriteUint64:
			got, want = g.mem.WriteUint64(st.addr, st.val), c.write(uint64(st.addr), le[:])
		case cowGrow:
			delta := st.n%5 + st.far
			got, want = g.grow(delta), c.grow(delta)
		case cowFill:
			ok := uint64(st.addr)+uint64(st.n) <= uint64(len(c.data))
			if ok {
				c.write(uint64(st.addr), bytes.Repeat([]byte{byte(st.val)}, int(st.n)))
			}
			got, want = g.fill(st.addr, byte(st.val), st.n), ok
		case cowCopy:
			ok := uint64(st.src)+uint64(st.n) <= uint64(len(c.data)) &&
				uint64(st.addr)+uint64(st.n) <= uint64(len(c.data))
			if ok {
				c.write(uint64(st.addr), bytes.Clone(c.data[st.src:uint64(st.src)+uint64(st.n)]))
			}
			got, want = g.copy(st.addr, st.src, st.n), ok
		case cowReset:
			got, want = g.mem.ResetToBaseline(), c.reset()
		case cowRead:
			b, ok := g.mem.Read(st.addr, hostN)
			got, want = cowReadResult(b, ok), c.read(uint64(st.addr), uint64(hostN))
		case cowView:
			b, ok := g.mem.View(st.addr, hostN)
			got, want = cowReadResult(b, ok), c.read(uint64(st.addr), uint64(hostN))
		case cowReadString:
			s, ok := g.mem.ReadString(st.addr, hostN)
			got, want = cowReadResult([]byte(s), ok), c.read(uint64(st.addr), uint64(hostN))
		case cowReadUint32:
			v, ok := g.mem.ReadUint32(st.addr)
			got, want = cowReadResult(binary.LittleEndian.AppendUint32(nil, v), ok), c.read(uint64(st.addr), 4)
		case cowReadUint64:
			v, ok := g.mem.ReadUint64(st.addr)
			got, want = cowReadResult(binary.LittleEndian.AppendUint64(nil, v), ok), c.read(uint64(st.addr), 8)
		case cowLoad:
			width := 1 << (st.val & 3)
			v, ok := g.load(width, st.addr)
			got = cowReadResult(binary.LittleEndian.AppendUint64(nil, v)[:width], ok)
			want = c.read(uint64(st.addr), uint64(width))
		}
		if got != want {
			fail("returned %v, the model says %v", got, want)
		}
		for who, g := range guests {
			m, c := g.mem, models[who]
			switch {
			case !bytes.Equal(m.Bytes(), c.data):
				fail("memory %d differs from its model", who)
			case int(m.Pages()) != len(c.data)/wasm.PageSize:
				fail("memory %d has %d pages, want %d", who, m.Pages(), len(c.data)/wasm.PageSize)
			case m.DirtyPages() != len(c.dirty):
				fail("memory %d has %d dirty pages, want %d", who, m.DirtyPages(), len(c.dirty))
			case m.PrivateBytes() != int64(len(c.dirty))*wasm.PageSize:
				fail("memory %d private bytes %d, want %d pages", who, m.PrivateBytes(), len(c.dirty))
			case m.aliased() == c.private:
				fail("memory %d aliased=%v, the rule says private=%v", who, m.aliased(), c.private)
			case m.Baseline() != img:
				fail("memory %d lost its baseline", who)
			}
			for p := range c.dirty {
				if m.dirty[p>>6]&(1<<(p&63)) == 0 {
					fail("memory %d page %d should be dirty", who, p)
				}
			}
		}
		if !bytes.Equal(img.contents(), base) || len(img.data) != prefix {
			fail("the shared image changed")
		}
	}
	if sha256.Sum256(img.data) != imgSum {
		t.Fatal("the shared image's SHA-256 changed")
	}
}

// runCowProgramEverywhere runs one program through the Memory API and
// through guest code at both tiers.
func runCowProgramEverywhere(t testing.TB, prog []byte) {
	prefix, steps := decodeCowProgram(prog)
	guests, img := directGuests(t, prefix)
	runCowProgram(t, guests, img, prefix, steps)
	for tier := 0; tier <= 1; tier++ {
		guests, img := instanceGuests(t, tier, prefix)
		runCowProgram(t, guests, img, prefix, steps)
	}
}

func FuzzMemoryCoW(f *testing.F) {
	for _, prog := range append(cowSeeds(), cowPrefixSeeds()...) {
		f.Add([]byte(prog))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runCowProgramEverywhere(t, prog)
	})
}

// TestAttachBaselineRejectsDivergentMemory: a start function that stores a
// host-provided value makes instantiation non-deterministic. The second
// instance must keep its own bytes (attach refused, private baseline) rather
// than silently adopt the first instance's image.
func TestAttachBaselineRejectsDivergentMemory(t *testing.T) {
	m, err := wat.Compile(`
(module
  (import "env" "token" (func $token (result i32)))
  (memory (export "memory") 1)
  (func $init (i32.store (i32.const 8) (call $token)))
  (func (export "peek") (result i32) (i32.load (i32.const 8)))
  (start $init))
`)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	instantiate := func(token int32) *Instance {
		s := NewStore(Config{})
		s.NewHostModule("env").AddFunc("token", HostFunc{
			Type: wasm.FuncType{Results: []wasm.ValueType{i32}},
			Fn:   func(*HostContext, []Value) ([]Value, error) { return []Value{I32(token)}, nil },
		})
		inst, err := s.InstantiateCompiled(mc, "")
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	first, second, third := instantiate(111), instantiate(222), instantiate(111)
	img := mc.EnsureBaseline(first.Memory())
	if img == nil {
		t.Fatal("first instance published no image")
	}
	if got := mc.EnsureBaseline(second.Memory()); got != nil {
		t.Fatal("a memory that differs from the image attached to it")
	}
	if second.Memory().Baseline() != nil {
		t.Fatal("refused attach still changed the memory's baseline")
	}
	if got := AsI32(mustCall(t, second, "peek")[0]); got != 222 {
		t.Fatalf("second instance reads %d, want its own 222", got)
	}
	// A private baseline (what engine.Instantiate falls back to) keeps it.
	second.Memory().CaptureBaseline()
	second.Memory().WriteUint32(8, 5)
	second.Memory().ResetToBaseline()
	if got := AsI32(mustCall(t, second, "peek")[0]); got != 222 {
		t.Fatalf("second instance resets to %d, want 222", got)
	}
	// An instance that did reach the image's state attaches and aliases it.
	if mc.EnsureBaseline(third.Memory()) != img || !third.Memory().aliased() {
		t.Fatal("an identical memory did not adopt the shared image")
	}
	if got := AsI32(mustCall(t, first, "peek")[0]); got != 111 {
		t.Fatalf("first instance reads %d, want 111", got)
	}
}
