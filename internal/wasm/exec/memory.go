package exec

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"

	"wasmcontainers/internal/wasm"
)

// Memory is a linear memory instance. Its size is always a multiple of the
// 64 KiB page size.
//
// Memory is copy-on-write against a shared immutable BaselineImage (the
// post-instantiation contents, held by the module's ModuleCode and shared by
// every instance of that digest on the node). While no page has been written
// since the image was attached the memory is *aliased*: data is the image's
// stored bytes — its contents up to the last non-zero byte, the rest being
// implied zeroes up to size — and wr is empty, so the instance holds no
// linear memory at all. The first write, or the first read past the stored
// bytes, materialises a private buffer of size bytes (data and wr then name
// the same bytes), every mutation path sets a bit in a per-page dirty bitmap,
// and ResetToBaseline rewinds either by copying the dirty pages back or —
// when that would be every baseline page — by dropping back to the alias.
//
// Every write goes through wr, which never names image bytes, so the shared
// image is structurally unreachable from a store; reads go through data. A
// slice obtained from View or WritableView is invalidated by the next write,
// Grow or reset: no view may be held across one.
type Memory struct {
	Type wasm.MemoryType
	// data is what loads see: the image's stored bytes while aliased (often
	// fewer than size, so a load past them falls into the out-of-bounds slow
	// path, which materialises), the private buffer once materialised.
	data []byte
	// wr is what stores bounds-check against and write through: empty while
	// aliased (so every store falls into its out-of-bounds slow path, which is
	// where materialisation happens), identical to data otherwise.
	wr []byte
	// size is the memory's length in bytes; len(data) == size unless aliased.
	size int
	// maxPages caps growth; defaults to the type's max or the engine limit.
	maxPages uint32
	// dirty has one bit per 64 KiB page, set on first write since the last
	// baseline capture/attach/reset. Always sized to cover size.
	// Up to 64 pages it is dirtyInline; the first Grow past that moves it to
	// an allocated array, which it keeps.
	dirty       []uint64
	dirtyInline [1]uint64
	// baseline is the shared read-only image dirty pages diverge from; nil
	// until captured or attached.
	baseline *BaselineImage
}

// memoryMaxPages is the growth cap: the type's own maximum under the
// engine-imposed limitPages (0 = none).
func memoryMaxPages(t wasm.MemoryType, limitPages uint32) uint32 {
	max := uint32(wasm.MaxMemoryPages)
	if t.Limits.HasMax && t.Limits.Max < max {
		max = t.Limits.Max
	}
	if limitPages > 0 && limitPages < max {
		max = limitPages
	}
	return max
}

// NewMemory allocates a memory instance for the given type. limitPages is an
// engine-imposed cap applied on top of the type's own maximum.
func NewMemory(t wasm.MemoryType, limitPages uint32) *Memory {
	m := new(Memory)
	m.init(t, limitPages)
	return m
}

// init makes m a fresh zeroed memory of type t, as NewMemory returns. Its
// buffer is a parked one, cleared, when the free-list has one that fits.
func (m *Memory) init(t wasm.MemoryType, limitPages uint32) {
	n := int(t.Limits.Min) * wasm.PageSize
	*m = Memory{Type: t, maxPages: memoryMaxPages(t, limitPages)}
	m.privatise(n, n)
	m.sizeDirty(uint64(t.Limits.Min))
}

// initAliased is init for a module whose baseline image is already published
// and fully determines a fresh instance's memory: no buffer is allocated,
// zeroed or initialised — the memory reads the image until its first write.
func (m *Memory) initAliased(t wasm.MemoryType, limitPages uint32, b *BaselineImage) {
	*m = Memory{Type: t, data: b.data, size: b.size(), maxPages: memoryMaxPages(t, limitPages), baseline: b}
	m.sizeDirty(uint64(b.pages))
}

// sizeDirty gives a fresh memory a clear bitmap covering pages, inline when
// one word covers them.
func (m *Memory) sizeDirty(pages uint64) {
	if n := (pages + 63) / 64; n <= uint64(len(m.dirtyInline)) {
		m.dirty = m.dirtyInline[:n]
	} else {
		m.dirty = make([]uint64, n)
	}
}

// Pages returns the current size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(m.size / wasm.PageSize) }

// Size returns the current size in bytes.
func (m *Memory) Size() int { return m.size }

// aliased reports whether the memory currently reads the shared image and
// holds no private buffer.
func (m *Memory) aliased() bool { return len(m.wr) < m.size }

// freeBuffers is the package's one free-list of private page buffers.
// ResetToBaseline parks a buffer here when it re-aliases, as do
// CaptureBaseline and AttachBaseline when a memory gives up the buffer it was
// instantiated into; the next first write or fresh memory anywhere in the
// process takes it back, so a steady request or deploy stream recycles a
// handful of buffers instead of allocating one each time. A
// run-to-completion instance never resets: the private buffer its first
// write took goes to the collector with it. Parked bytes are stale guest
// data; takers overwrite or clear every byte they expose.
var freeBuffers struct {
	sync.Mutex
	bufs  [][]byte
	bytes int
}

// freeBuffersMaxBytes bounds the capacity the free-list retains; a buffer
// that would exceed it is left to the collector.
const freeBuffersMaxBytes = 16 << 20

func parkBuffer(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	freeBuffers.Lock()
	if freeBuffers.bytes+cap(buf) <= freeBuffersMaxBytes {
		freeBuffers.bufs = append(freeBuffers.bufs, buf[:0])
		freeBuffers.bytes += cap(buf)
	}
	freeBuffers.Unlock()
}

// takeBuffer returns the most recently parked buffer with capacity for n > 0
// bytes, or nil.
func takeBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	freeBuffers.Lock()
	defer freeBuffers.Unlock()
	bufs := freeBuffers.bufs
	for i := len(bufs) - 1; i >= 0; i-- {
		if buf := bufs[i]; cap(buf) >= n {
			last := len(bufs) - 1
			copy(bufs[i:], bufs[i+1:])
			bufs[last] = nil
			freeBuffers.bufs = bufs[:last]
			freeBuffers.bytes -= cap(buf)
			return buf
		}
	}
	return nil
}

// privatise replaces the backing store with a private buffer of n >= Size()
// bytes holding the current contents — the bytes data holds — followed by
// zeroes. A recycled buffer is preferred; a fresh one gets capacity capHint.
func (m *Memory) privatise(n, capHint int) {
	buf := takeBuffer(n)
	if buf == nil {
		buf = make([]byte, n, capHint)
	} else {
		buf = buf[:n]
		clear(buf[len(m.data):])
	}
	copy(buf, m.data)
	m.data, m.wr, m.size = buf, buf, n
}

// materialise is the slow path behind every failed bounds check — a write
// against wr, a read against data: if the memory is aliased and an access
// ending at end would be in bounds, it takes a private copy of the image (its
// stored bytes, then zeroes) and reports true; otherwise the access is
// genuinely out of bounds.
func (m *Memory) materialise(end uint64) bool {
	if end > uint64(m.size) || !m.aliased() {
		return false
	}
	m.privatise(m.size, m.size)
	return true
}

// readable returns the bytes [ea, ea+n) for a host or bulk read,
// materialising an aliased memory whose image does not store them all. A
// zero-length read leaves an aliased memory aliased.
func (m *Memory) readable(ea, n uint64) ([]byte, bool) {
	end := ea + n
	if end > uint64(len(m.data)) {
		if n == 0 {
			return nil, end <= uint64(m.size)
		}
		if !m.materialise(end) {
			return nil, false
		}
	}
	return m.data[ea:end:end], true
}

// writable returns the private bytes [ea, ea+n) for a host or bulk write,
// materialising first if needed and marking the covered pages dirty. A
// zero-length write leaves an aliased memory aliased.
func (m *Memory) writable(ea, n uint64) ([]byte, bool) {
	end := ea + n
	if end > uint64(len(m.wr)) {
		if end > uint64(m.size) {
			return nil, false
		}
		if n == 0 {
			return nil, true
		}
		m.materialise(end)
	}
	m.markRange(ea, n)
	return m.wr[ea:end:end], true
}

// markRange flags every page overlapping [ea, ea+n).
func (m *Memory) markRange(ea, n uint64) {
	if n == 0 {
		return
	}
	for p := ea >> 16; p <= (ea+n-1)>>16; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
	}
}

// Grow extends the memory by delta pages, returning the previous page count
// or -1 (as per memory.grow semantics) if the limit would be exceeded.
// Reallocation keeps capacity headroom (amortized doubling up to maxPages),
// so a guest growing one page at a time pays O(n) total copying, not O(n²).
// New pages are zero and marked dirty: relative to any baseline they are
// private memory, released again by ResetToBaseline. Growing an aliased
// memory materialises it straight into the larger buffer.
func (m *Memory) Grow(delta uint32) int32 {
	cur := m.Pages()
	if delta == 0 {
		return int32(cur)
	}
	newPages := uint64(cur) + uint64(delta)
	if newPages > uint64(m.maxPages) {
		return -1
	}
	newLen := int(newPages) * wasm.PageSize
	if newLen <= cap(m.wr) {
		// Reslice within the private buffer's capacity (an aliased memory has
		// none). Pages in [cur, newPages) may hold stale bytes from before a
		// shrink (ResetToBaseline reslices down without clearing);
		// memory.grow must expose zeroes.
		oldLen := len(m.wr)
		m.wr = m.wr[:newLen]
		clear(m.wr[oldLen:])
		m.data, m.size = m.wr, newLen
	} else {
		newCap := max(2*cap(m.wr), 2*m.size, newLen)
		if maxLen := int(m.maxPages) * wasm.PageSize; newCap > maxLen {
			newCap = maxLen
		}
		m.privatise(newLen, newCap)
	}
	for need := int(newPages+63) / 64; len(m.dirty) < need; {
		m.dirty = append(m.dirty, 0)
	}
	for p := uint64(cur); p < newPages; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
	}
	return int32(cur)
}

// Bytes returns a copy of the full contents: the bytes held, then the zeroes
// an aliased memory's image does not store. Unlike View it never
// materialises, so a test can read an aliased memory without changing it.
func (m *Memory) Bytes() []byte {
	out := make([]byte, m.size)
	copy(out, m.data)
	return out
}

// BaselineImage is the immutable post-instantiation contents of a module's
// memory, shared by reference between every instance of a module digest:
// idle instances read these very bytes, written ones diverge from them page
// by page. It is the memory-side twin of the shared compiled-code artifact:
// accounted once per node, with instances charged only their private dirty
// pages. Accounting is in whole pages, but data stores only the contents up
// to the last non-zero byte (nothing for an all-zero image); the remaining
// bytes up to pages*PageSize are zero. Nothing writes data after the image is
// built.
type BaselineImage struct {
	data  []byte
	pages uint32
}

// Bytes returns the accounted size of the image.
func (b *BaselineImage) Bytes() int64 { return int64(b.size()) }

// Pages returns the image size in 64 KiB pages.
func (b *BaselineImage) Pages() uint32 { return b.pages }

// size is the length in bytes of the memory the image stands for.
func (b *BaselineImage) size() int { return int(b.pages) * wasm.PageSize }

// CaptureBaseline makes the current contents a new shared baseline and
// attaches it: the image stores a copy of the contents up to the last
// non-zero byte, the memory parks its buffer on the free-list, drops back to
// aliasing the image, and clears the dirty bitmap — from here on its private
// cost is the pages it diverges by.
func (m *Memory) CaptureBaseline() *BaselineImage {
	b := &BaselineImage{data: bytes.Clone(m.data[:m.storedLen()]), pages: m.Pages()}
	parkBuffer(m.wr)
	m.baseline = b
	m.data, m.wr = b.data, nil
	clear(m.dirty)
	return b
}

// storedLen is the length of the contents up to the last non-zero byte. A
// page the dirty bitmap does not mark still holds what it held at the last
// capture, attach or reset — zero in a memory that never had a baseline — so
// the scan starts at the end of the highest marked page, or of the attached
// image's stored bytes if that is further.
func (m *Memory) storedLen() int {
	end := 0
	if m.baseline != nil {
		end = len(m.baseline.data)
	}
	for wi := len(m.dirty) - 1; wi >= 0; wi-- {
		if w := m.dirty[wi]; w != 0 {
			end = max(end, (wi*64+64-bits.LeadingZeros64(w))*wasm.PageSize)
			break
		}
	}
	return trimmedLen(m.data[:min(end, len(m.data))])
}

// zeroes is what trimmedLen compares against a chunk at a time: a vectorised
// bytes.Equal per chunk scans a zero page about ten times faster than a loop
// over its bytes.
var zeroes [256]byte

// trimmedLen is the length of b without its trailing zero bytes.
func trimmedLen(b []byte) int {
	end := len(b)
	for end >= len(zeroes) && bytes.Equal(b[end-len(zeroes):end], zeroes[:]) {
		end -= len(zeroes)
	}
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return end
}

// AttachBaseline adopts an existing shared baseline: the memory parks its own
// buffer and aliases the image. A memory that already aliases b (the
// instantiation fast path) is left as it is. One that arrives with its own
// bytes — instantiated by replaying data segments and the start function —
// must equal the image byte for byte; instantiation is normally
// deterministic, but a start function may write host-dependent values, and
// adopting the image then would silently replace them. Returns false on any
// mismatch, in which case the memory is left untouched (callers capture a
// private baseline instead).
func (m *Memory) AttachBaseline(b *BaselineImage) bool {
	if b == nil {
		return false
	}
	if m.baseline == b {
		return true
	}
	if m.size != b.size() || !sameContents(m.data, b.data) {
		return false
	}
	parkBuffer(m.wr)
	m.baseline = b
	m.data, m.wr = b.data, nil
	clear(m.dirty)
	return true
}

// sameContents reports whether two stored prefixes of equally sized memories
// stand for the same contents: the shorter one's bytes, then zeroes.
func sameContents(x, y []byte) bool {
	if len(x) < len(y) {
		x, y = y, x
	}
	return bytes.Equal(x[:len(y)], y) && trimmedLen(x[len(y):]) == 0
}

// Baseline returns the attached shared image, or nil.
func (m *Memory) Baseline() *BaselineImage { return m.baseline }

// DirtyPages counts pages written since the last baseline capture/attach or
// reset (including pages acquired by memory.grow).
func (m *Memory) DirtyPages() int {
	n := 0
	for _, w := range m.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// dirtyBelow counts dirty pages with index < pages.
func (m *Memory) dirtyBelow(pages uint64) int {
	n := 0
	for wi, w := range m.dirty {
		if lo := uint64(wi) * 64; lo+64 > pages {
			if lo >= pages {
				break
			}
			w &= 1<<(pages-lo) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// PrivateBytes is the memory's copy-on-write private cost: dirty pages when
// a baseline is attached, the whole memory otherwise.
func (m *Memory) PrivateBytes() int64 {
	if m.baseline == nil {
		return int64(m.size)
	}
	return int64(m.DirtyPages()) * wasm.PageSize
}

// ResetToBaseline rewinds the memory to the attached baseline, releasing
// pages grown beyond it and clearing the dirty bitmap. Normally it copies
// back only the dirty pages, so cost is proportional to pages touched since
// the last reset, not memory size, and a large lightly-dirtied memory keeps
// its buffer. When every baseline page is dirty the copy-back would rewrite
// the whole buffer anyway, and when none is (a read past the image's stored
// bytes materialised it, or only grown pages were written) the buffer holds
// nothing the image does not: either way the memory re-aliases the image and
// parks the buffer on the free-list, deferring the copy to the next first
// write — and skipping it if the instance idles. Returns the number of
// baseline pages rewound, or -1 if no baseline is attached (the memory is
// left unchanged).
func (m *Memory) ResetToBaseline() int {
	b := m.baseline
	if b == nil {
		return -1
	}
	if m.aliased() {
		return 0
	}
	basePages := uint64(b.pages)
	if n := m.dirtyBelow(basePages); n == 0 || uint64(n) == basePages {
		parkBuffer(m.wr)
		m.data, m.wr, m.size = b.data, nil, b.size()
		m.dirty = m.dirty[:(basePages+63)/64]
		clear(m.dirty)
		return n
	}
	if m.size > b.size() {
		// Drop grown pages: their dirty bits are discarded with them.
		m.wr = m.wr[:b.size()]
		m.data, m.size = m.wr, b.size()
	}
	copied := 0
	for wi, w := range m.dirty {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << bit
			p := uint64(wi)*64 + uint64(bit)
			if p >= basePages {
				continue
			}
			off := int(p) * wasm.PageSize
			page := m.wr[off : off+wasm.PageSize]
			clear(page[copy(page, b.data[min(off, len(b.data)):min(off+wasm.PageSize, len(b.data))]):])
			copied++
		}
		m.dirty[wi] = 0
	}
	if need := int(basePages+63) / 64; len(m.dirty) > need {
		m.dirty = m.dirty[:need]
	}
	return copied
}

// Read copies n bytes at addr into a fresh slice, returning false on OOB.
func (m *Memory) Read(addr, n uint32) ([]byte, bool) {
	r, ok := m.readable(uint64(addr), uint64(n))
	if !ok {
		return nil, false
	}
	out := make([]byte, n)
	copy(out, r)
	return out, true
}

// View returns a slice aliasing memory [addr, addr+n), or false on OOB.
// The view is for reading only — it may be the shared image's bytes — and is
// invalidated by the next write to the memory (use WritableView to mutate).
func (m *Memory) View(addr, n uint32) ([]byte, bool) {
	return m.readable(uint64(addr), uint64(n))
}

// WritableView is View for host functions that fill guest memory in place
// (avoiding a staging allocation): the memory is materialised and the covered
// pages are marked dirty up front, so writes through the returned slice land
// in private bytes and stay visible to the copy-on-write reset.
func (m *Memory) WritableView(addr, n uint32) ([]byte, bool) {
	return m.writable(uint64(addr), uint64(n))
}

// Write copies b into memory at addr, returning false on OOB.
func (m *Memory) Write(addr uint32, b []byte) bool {
	w, ok := m.writable(uint64(addr), uint64(len(b)))
	copy(w, b)
	return ok
}

// WriteString copies s into memory at addr without an intermediate []byte
// allocation, returning false on OOB.
func (m *Memory) WriteString(addr uint32, s string) bool {
	w, ok := m.writable(uint64(addr), uint64(len(s)))
	copy(w, s)
	return ok
}

// ReadUint32 reads a little-endian u32, returning false on OOB.
func (m *Memory) ReadUint32(addr uint32) (uint32, bool) {
	if r, ok := m.readable(uint64(addr), 4); ok {
		return binary.LittleEndian.Uint32(r), true
	}
	return 0, false
}

// WriteUint32 writes a little-endian u32, returning false on OOB.
func (m *Memory) WriteUint32(addr uint32, v uint32) bool {
	return m.storeAt(uint64(addr), 4, uint64(v))
}

// ReadUint64 reads a little-endian u64, returning false on OOB.
func (m *Memory) ReadUint64(addr uint32) (uint64, bool) {
	if r, ok := m.readable(uint64(addr), 8); ok {
		return binary.LittleEndian.Uint64(r), true
	}
	return 0, false
}

// WriteUint64 writes a little-endian u64, returning false on OOB.
func (m *Memory) WriteUint64(addr uint32, v uint64) bool {
	return m.storeAt(uint64(addr), 8, v)
}

// ReadString reads n bytes at addr as a string, returning false on OOB.
func (m *Memory) ReadString(addr, n uint32) (string, bool) {
	r, ok := m.readable(uint64(addr), uint64(n))
	return string(r), ok
}

// load fetches width bytes for the interpreter; returns the zero-extended
// little-endian value. An access past data lands in materialise, as tier 1's
// inlined loads do.
func (m *Memory) load(addr, offset uint32, width int) (uint64, bool) {
	ea := uint64(addr) + uint64(offset)
	if ea+uint64(width) > uint64(len(m.data)) && !m.materialise(ea+uint64(width)) {
		return 0, false
	}
	switch width {
	case 1:
		return uint64(m.data[ea]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.data[ea:])), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[ea:])), true
	default:
		return binary.LittleEndian.Uint64(m.data[ea:]), true
	}
}

// storeAt writes the low width bytes of v at effective address ea: tier 0's
// store, and the slow path of tier 1's inlined ones. The bounds check is
// against wr, so an aliased memory lands in materialise. The hot-loop dirty
// marking is one shift/or on the first page plus a compare for the (rare)
// access that straddles a page boundary.
func (m *Memory) storeAt(ea uint64, width int, v uint64) bool {
	if ea+uint64(width) > uint64(len(m.wr)) && !m.materialise(ea+uint64(width)) {
		return false
	}
	switch width {
	case 1:
		m.wr[ea] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.wr[ea:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.wr[ea:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.wr[ea:], v)
	}
	p := ea >> 16
	m.dirty[p>>6] |= 1 << (p & 63)
	if last := (ea + uint64(width) - 1) >> 16; last != p {
		m.dirty[last>>6] |= 1 << (last & 63)
	}
	return true
}

// fill is memory.fill for both tiers: n bytes of val at dst, false on OOB.
func (m *Memory) fill(dst uint32, val byte, n uint32) bool {
	w, ok := m.writable(uint64(dst), uint64(n))
	if !ok || len(w) == 0 {
		return ok
	}
	if val == 0 {
		clear(w)
		return true
	}
	w[0] = val
	for done := 1; done < len(w); done *= 2 {
		copy(w[done:], w[:done])
	}
	return true
}

// copyWithin is memory.copy for both tiers: n bytes from src to dst (the
// ranges may overlap), false if either range is out of bounds.
func (m *Memory) copyWithin(dst, src, n uint32) bool {
	from, end := uint64(src), uint64(src)+uint64(n)
	if end > uint64(m.size) {
		return false
	}
	w, ok := m.writable(uint64(dst), uint64(n))
	if !ok || n == 0 {
		return ok
	}
	// writable has materialised if needed: read the source from the private
	// buffer.
	copy(w, m.data[from:end])
	return true
}

// Table is a table instance holding function references.
type Table struct {
	Type wasm.TableType
	// elems holds function indices into the owning instance's function space;
	// nil entries are uninitialized.
	elems []*function
}

// NewTable allocates a table instance.
func NewTable(t wasm.TableType) *Table {
	return &Table{Type: t, elems: make([]*function, t.Limits.Min)}
}

// Len returns the current table length.
func (t *Table) Len() int { return len(t.elems) }

// GlobalVar is a global variable instance.
type GlobalVar struct {
	Type wasm.GlobalType
	Val  Value
}

// Get returns the current value.
func (g *GlobalVar) Get() Value { return g.Val }

// Set updates a mutable global. Setting an immutable global is a bug in the
// embedder; the interpreter never does it.
func (g *GlobalVar) Set(v Value) { g.Val = v }
