package exec

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wasmcontainers/internal/wasm"
)

func newCowMemory(minPages uint32) *Memory {
	return NewMemory(wasm.MemoryType{Limits: wasm.Limits{Min: minPages}}, 0)
}

// contents is the image's full contents: its stored bytes, then zeroes up to
// its accounted size.
func (b *BaselineImage) contents() []byte {
	out := make([]byte, b.size())
	copy(out, b.data)
	return out
}

func TestDirtyTrackingMutationPaths(t *testing.T) {
	m := newCowMemory(4)
	m.CaptureBaseline()
	if n := m.DirtyPages(); n != 0 {
		t.Fatalf("dirty after capture = %d, want 0", n)
	}

	// storeAt marks the written page; a store straddling a page boundary marks
	// both pages it touches.
	if !m.storeAt(100, 4, 0xdeadbeef) {
		t.Fatal("store failed")
	}
	if n := m.DirtyPages(); n != 1 {
		t.Fatalf("dirty after store = %d, want 1", n)
	}
	if !m.storeAt(wasm.PageSize-2, 4, 1) { // spans pages 0 and 1
		t.Fatal("spanning store failed")
	}
	if n := m.DirtyPages(); n != 2 {
		t.Fatalf("dirty after spanning store = %d, want 2", n)
	}

	// Write marks every page the slice covers.
	if !m.Write(2*wasm.PageSize-10, make([]byte, 20)) { // pages 1 and 2
		t.Fatal("Write failed")
	}
	if n := m.DirtyPages(); n != 3 {
		t.Fatalf("dirty after Write = %d, want 3", n)
	}

	// WriteUint32/64, WriteString, WritableView mark too.
	m.WriteUint32(3*wasm.PageSize+8, 7)
	if n := m.DirtyPages(); n != 4 {
		t.Fatalf("dirty after WriteUint32 = %d, want 4", n)
	}
	m.ResetToBaseline()
	m.WriteUint64(5, 9)
	m.WriteString(wasm.PageSize+1, "hello")
	if buf, ok := m.WritableView(2*wasm.PageSize, 8); !ok {
		t.Fatal("WritableView failed")
	} else {
		buf[0] = 1
	}
	if n := m.DirtyPages(); n != 3 {
		t.Fatalf("dirty after WriteUint64+WriteString+WritableView = %d, want 3", n)
	}

	// Reads never mark.
	m.ResetToBaseline()
	m.Read(0, 128)
	m.View(0, 128)
	m.ReadUint32(0)
	m.ReadUint64(0)
	m.ReadString(0, 16)
	m.load(0, 0, 8)
	if n := m.DirtyPages(); n != 0 {
		t.Fatalf("dirty after reads = %d, want 0", n)
	}
}

func TestResetToBaselineCopiesOnlyDirtyPages(t *testing.T) {
	m := newCowMemory(8)
	// Pre-baseline content on every page, as data segments would leave it.
	for p := uint32(0); p < 8; p++ {
		m.Write(p*wasm.PageSize, []byte{byte(p + 1)})
	}
	b := m.CaptureBaseline()
	if b.Pages() != 8 || b.Bytes() != 8*wasm.PageSize {
		t.Fatalf("baseline = %d pages / %d bytes", b.Pages(), b.Bytes())
	}

	// Dirty two of eight pages.
	m.storeAt(3*wasm.PageSize+17, 1, 0xff)
	m.WriteUint32(6*wasm.PageSize, 0xffffffff)
	if copied := m.ResetToBaseline(); copied != 2 {
		t.Fatalf("reset copied %d pages, want 2", copied)
	}
	if !bytes.Equal(m.Bytes(), b.contents()) {
		t.Fatal("memory does not match baseline after reset")
	}
	if n := m.DirtyPages(); n != 0 {
		t.Fatalf("dirty after reset = %d, want 0", n)
	}
	if m.PrivateBytes() != 0 {
		t.Fatalf("private bytes after reset = %d, want 0", m.PrivateBytes())
	}

	// A clean memory resets for free.
	if copied := m.ResetToBaseline(); copied != 0 {
		t.Fatalf("clean reset copied %d pages", copied)
	}
}

// TestCaptureStoresOnlyThePrefix: an image stores the contents up to the last
// non-zero byte and is accounted in whole pages; the donor's buffer goes to
// the free-list, and the next fresh memory takes it back cleared.
func TestCaptureStoresOnlyThePrefix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes map[uint32]byte // address -> non-zero byte
		stored int
	}{
		{"all zero", nil, 0},
		{"mid-page", map[uint32]byte{10: 1, 999: 2}, 1000},
		{"page boundary", map[uint32]byte{wasm.PageSize - 1: 3}, wasm.PageSize},
		{"multi-page", map[uint32]byte{5: 4, 2*wasm.PageSize + 7: 5}, 2*wasm.PageSize + 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for takeBuffer(1) != nil { // a full free-list would refuse the donor
			}
			m := newCowMemory(4)
			m.Write(0, make([]byte, 3*wasm.PageSize)) // zeroes: dirty, not stored
			for addr, v := range tc.writes {
				m.Write(addr, []byte{v})
			}
			want := m.Bytes()
			donor := &m.wr[0]
			b := m.CaptureBaseline()
			if len(b.data) != tc.stored || b.Pages() != 4 || b.Bytes() != 4*wasm.PageSize {
				t.Fatalf("image stores %d bytes of %d pages (%d B), want %d of 4", len(b.data), b.Pages(), b.Bytes(), tc.stored)
			}
			if !bytes.Equal(b.contents(), want) || !bytes.Equal(m.Bytes(), want) || !m.aliased() {
				t.Fatal("capture changed the contents or did not alias the image")
			}
			fresh := newCowMemory(4)
			if &fresh.wr[0] != donor {
				t.Fatal("a fresh memory did not take the donor's parked buffer")
			}
			if !bytes.Equal(fresh.Bytes(), make([]byte, 4*wasm.PageSize)) {
				t.Fatal("a recycled buffer was not cleared")
			}
		})
	}
}

// TestTrimmedLen puts the last non-zero byte of a page at every offset
// around trimmedLen's chunk edges.
func TestTrimmedLen(t *testing.T) {
	page := make([]byte, wasm.PageSize)
	if n := trimmedLen(page); n != 0 {
		t.Fatalf("all-zero page trims to %d", n)
	}
	for _, last := range []int{0, 1, 254, 255, 256, 257, 511, 512, 1000,
		wasm.PageSize - 257, wasm.PageSize - 256, wasm.PageSize - 255, wasm.PageSize - 1} {
		clear(page)
		page[0], page[last] = 1, 2
		if n := trimmedLen(page); n != last+1 {
			t.Fatalf("last non-zero byte at %d: trimmed length %d", last, n)
		}
	}
}

// TestReadPastThePrefixMaterialises: every read path reads the zeroes past an
// aliased memory's stored bytes by materialising first, while a read inside
// them, an empty one, or an out-of-bounds one leaves the memory aliased.
func TestReadPastThePrefixMaterialises(t *testing.T) {
	donor := newCowMemory(2)
	donor.Write(100, []byte("prefix"))
	img := donor.CaptureBaseline()
	reads := []struct {
		name string
		read func(m *Memory, addr uint32) (string, bool)
	}{
		{"Read", func(m *Memory, a uint32) (string, bool) { b, ok := m.Read(a, 8); return string(b), ok }},
		{"View", func(m *Memory, a uint32) (string, bool) { b, ok := m.View(a, 8); return string(b), ok }},
		{"ReadString", func(m *Memory, a uint32) (string, bool) { return m.ReadString(a, 8) }},
		{"ReadUint64", func(m *Memory, a uint32) (string, bool) {
			v, ok := m.ReadUint64(a)
			return string(binary.LittleEndian.AppendUint64(nil, v)), ok
		}},
		{"load", func(m *Memory, a uint32) (string, bool) {
			v, ok := m.load(a, 0, 8)
			return string(binary.LittleEndian.AppendUint64(nil, v)), ok
		}},
	}
	for _, r := range reads {
		for _, tc := range []struct {
			addr        uint32
			want        string
			ok, aliased bool
		}{
			{98, "\x00\x00prefix", true, true},
			{102, "efix\x00\x00\x00\x00", true, false},
			{2*wasm.PageSize - 8, "\x00\x00\x00\x00\x00\x00\x00\x00", true, false},
			{2*wasm.PageSize - 7, "", false, true},
		} {
			m := new(Memory)
			m.initAliased(wasm.MemoryType{Limits: wasm.Limits{Min: 2}}, 0, img)
			got, ok := r.read(m, tc.addr)
			if !ok {
				got = ""
			}
			if got != tc.want || ok != tc.ok || m.aliased() != tc.aliased {
				t.Errorf("%s(%d) = %q, %v, aliased %v; want %q, %v, aliased %v",
					r.name, tc.addr, got, ok, m.aliased(), tc.want, tc.ok, tc.aliased)
			}
			if m.DirtyPages() != 0 {
				t.Errorf("%s(%d) marked %d pages dirty", r.name, tc.addr, m.DirtyPages())
			}
		}
	}
	m := new(Memory)
	m.initAliased(wasm.MemoryType{Limits: wasm.Limits{Min: 2}}, 0, img)
	if v, ok := m.View(2*wasm.PageSize, 0); !ok || len(v) != 0 || !m.aliased() {
		t.Fatal("an empty View at the end materialised or failed")
	}
}

// TestResetAfterReadOnlyReAliases: a memory that only a read past its
// image's stored bytes materialised holds a buffer with no page dirty, which
// PrivateBytes charges nothing for; a reset re-aliases the image and parks
// that buffer.
func TestResetAfterReadOnlyReAliases(t *testing.T) {
	donor := newCowMemory(2)
	donor.Write(100, []byte("prefix"))
	img := donor.CaptureBaseline()
	m := new(Memory)
	m.initAliased(wasm.MemoryType{Limits: wasm.Limits{Min: 2}}, 0, img)
	if v, ok := m.load(wasm.PageSize, 0, 8); !ok || v != 0 || m.aliased() {
		t.Fatalf("load past the stored bytes = %d, %v, aliased %v; want 0, true, false", v, ok, m.aliased())
	}
	if n := m.ResetToBaseline(); n != 0 {
		t.Fatalf("reset rewound %d pages, want 0", n)
	}
	if !m.aliased() || cap(m.wr) != 0 || m.PrivateBytes() != 0 {
		t.Fatalf("after reset: aliased %v, buffer cap %d, private %d; want aliased, no buffer, 0",
			m.aliased(), cap(m.wr), m.PrivateBytes())
	}
	want := make([]byte, 2*wasm.PageSize)
	copy(want[100:], "prefix")
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatal("contents after reset differ from the image")
	}
}

func TestGrowThenResetShrinksToBaseline(t *testing.T) {
	m := newCowMemory(1)
	m.CaptureBaseline()

	if prev := m.Grow(3); prev != 1 {
		t.Fatalf("grow returned %d, want 1", prev)
	}
	// Grown pages count as private/dirty: they have no baseline backing.
	if n := m.DirtyPages(); n != 3 {
		t.Fatalf("dirty after grow = %d, want 3", n)
	}
	if m.PrivateBytes() != 3*wasm.PageSize {
		t.Fatalf("private after grow = %d", m.PrivateBytes())
	}
	m.storeAt(2*wasm.PageSize, 8, 42) // write into a grown page

	if copied := m.ResetToBaseline(); copied != 0 {
		t.Fatalf("reset copied %d pages, want 0 (grown pages are dropped, not copied)", copied)
	}
	if m.Pages() != 1 {
		t.Fatalf("pages after reset = %d, want baseline 1", m.Pages())
	}
	if m.DirtyPages() != 0 || m.PrivateBytes() != 0 {
		t.Fatalf("dirty=%d private=%d after reset", m.DirtyPages(), m.PrivateBytes())
	}

	// Re-growing within retained capacity must expose zero pages, not the
	// stale bytes from before the reset.
	if prev := m.Grow(2); prev != 1 {
		t.Fatalf("regrow returned %d", prev)
	}
	if v, _ := m.ReadUint64(2 * wasm.PageSize); v != 0 {
		t.Fatalf("regrown page not zeroed: %#x", v)
	}
}

func TestGrowAmortizedCapacity(t *testing.T) {
	m := newCowMemory(1)
	const target = 64
	allocs := 0
	lastCap := cap(m.data)
	for m.Pages() < target {
		if m.Grow(1) < 0 {
			t.Fatal("grow failed")
		}
		if cap(m.data) != lastCap {
			allocs++
			lastCap = cap(m.data)
		}
	}
	// Doubling from 1 to 64 pages needs ~log2(64) reallocations, not 63.
	if allocs > 8 {
		t.Fatalf("%d reallocations growing to %d pages; capacity headroom not amortizing", allocs, target)
	}
	if m.Pages() != target {
		t.Fatalf("pages = %d", m.Pages())
	}
}

func TestGrowRespectsMaxWithHeadroom(t *testing.T) {
	m := NewMemory(wasm.MemoryType{Limits: wasm.Limits{Min: 1, HasMax: true, Max: 3}}, 0)
	if m.Grow(1) != 1 || m.Grow(1) != 2 {
		t.Fatal("grow within max failed")
	}
	if cap(m.data) > 3*wasm.PageSize {
		t.Fatalf("capacity %d exceeds max memory size", cap(m.data))
	}
	if m.Grow(1) != -1 {
		t.Fatal("grow past max succeeded")
	}
}

func TestAttachBaselineSharesOneImage(t *testing.T) {
	a := newCowMemory(2)
	a.Write(10, []byte("baseline"))
	img := a.CaptureBaseline()

	b := newCowMemory(2)
	b.Write(10, []byte("baseline")) // deterministic instantiation stand-in
	if !b.AttachBaseline(img) {
		t.Fatal("attach failed")
	}
	if a.Baseline() != b.Baseline() {
		t.Fatal("instances do not share one baseline image")
	}

	// Dirtying a never leaks into b, and both reset against the same image.
	a.Write(10, []byte("DIRTYDIR"))
	if s, _ := b.ReadString(10, 8); s != "baseline" {
		t.Fatalf("b observed a's dirty page: %q", s)
	}
	a.ResetToBaseline()
	if s, _ := a.ReadString(10, 8); s != "baseline" {
		t.Fatalf("a after reset: %q", s)
	}

	// Size mismatch refuses the attach.
	c := newCowMemory(3)
	if c.AttachBaseline(img) {
		t.Fatal("attach accepted a size-mismatched image")
	}
	// So does a non-zero byte past the bytes the image stores.
	d := newCowMemory(2)
	d.Write(10, []byte("baseline"))
	d.Write(wasm.PageSize+3, []byte{1})
	if d.AttachBaseline(img) {
		t.Fatal("attach accepted a memory that differs past the image's stored bytes")
	}
}

// TestRecaptureKeepsCleanImageBytes: capturing a memory that already has a
// baseline must keep what its clean pages hold from that image, not only what
// its dirty pages hold.
func TestRecaptureKeepsCleanImageBytes(t *testing.T) {
	m := newCowMemory(2)
	m.Write(wasm.PageSize+5, []byte{9})
	first := m.CaptureBaseline()
	if again := m.CaptureBaseline(); !bytes.Equal(again.contents(), first.contents()) || len(again.data) != wasm.PageSize+6 {
		t.Fatal("recapturing an aliased memory lost the image's bytes")
	}
	m.Write(3, []byte{7}) // dirties page 0 only
	want := first.contents()
	want[3] = 7
	if second := m.CaptureBaseline(); !bytes.Equal(second.contents(), want) || len(second.data) != wasm.PageSize+6 {
		t.Fatal("recapture lost the clean page's image bytes")
	}
}

// TestDirtyBitmapInlineEdge walks a memory across the 64-page edge where its
// dirty bitmap leaves the word inside Memory for an allocated array: an
// aliased 1-page memory grows to 64 pages, then 65, is written, reset,
// grown across again and reset again. After every step its bytes, pages,
// DirtyPages and PrivateBytes match the full-copy model.
func TestDirtyBitmapInlineEdge(t *testing.T) {
	base := bytes.Repeat([]byte{0x5a}, wasm.PageSize)
	donor := newCowMemory(1)
	donor.Write(0, base)
	img := donor.CaptureBaseline()
	m := new(Memory)
	m.initAliased(wasm.MemoryType{Limits: wasm.Limits{Min: 1}}, cowMaxPages, img)
	c := newCowModel(base)
	inline := func() bool { return cap(m.dirty) > 0 && &m.dirty[:1][0] == &m.dirtyInline[0] }
	check := func(step string, wantInline bool) {
		t.Helper()
		switch {
		case !bytes.Equal(m.Bytes(), c.data):
			t.Fatalf("%s: bytes differ from the model", step)
		case int(m.Pages()) != len(c.data)/wasm.PageSize:
			t.Fatalf("%s: %d pages, want %d", step, m.Pages(), len(c.data)/wasm.PageSize)
		case m.DirtyPages() != len(c.dirty):
			t.Fatalf("%s: %d dirty pages, want %d", step, m.DirtyPages(), len(c.dirty))
		case m.PrivateBytes() != int64(len(c.dirty))*wasm.PageSize:
			t.Fatalf("%s: private bytes %d, want %d pages", step, m.PrivateBytes(), len(c.dirty))
		case m.aliased() == c.private:
			t.Fatalf("%s: aliased=%v, the model says private=%v", step, m.aliased(), c.private)
		case inline() != wantInline:
			t.Fatalf("%s: bitmap inline=%v, want %v", step, inline(), wantInline)
		}
	}
	grow := func(step string, delta uint32, wantInline bool) {
		t.Helper()
		if got, want := m.Grow(delta), c.grow(delta); got != want {
			t.Fatalf("%s: Grow(%d) = %d, the model says %d", step, delta, got, want)
		}
		check(step, wantInline)
	}
	write := func(step string, ea uint32, wantInline bool) {
		t.Helper()
		b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		if got, want := m.Write(ea, b), c.write(uint64(ea), b); got != want {
			t.Fatalf("%s: Write(%#x) = %v, the model says %v", step, ea, got, want)
		}
		check(step, wantInline)
	}
	reset := func(step string, wantInline bool) {
		t.Helper()
		if got, want := m.ResetToBaseline(), c.reset(); got != want {
			t.Fatalf("%s: ResetToBaseline = %d, the model says %d", step, got, want)
		}
		check(step, wantInline)
	}

	check("aliased", true)
	grow("grow to 63 pages", 62, true)
	write("write page 62", 62*wasm.PageSize+4, true)
	grow("grow to 64 pages", 1, true)
	write("write page 63", 64*wasm.PageSize-8, true)
	grow("grow to 65 pages", 1, false)
	write("write page 64", 64*wasm.PageSize, false)
	write("write across pages 0 and 1", wasm.PageSize-4, false)
	reset("reset: every baseline page dirty, re-alias", false)
	grow("grow again to 65 pages", 64, false)
	write("write page 64 again", 64*wasm.PageSize+100, false)
	reset("reset: no baseline page dirty, copy back", false)
	write("write page 0", 8, false)
	grow("grow to 2 pages", 1, false)
	reset("reset: the baseline page dirty", false)
}
