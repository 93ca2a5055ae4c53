package vfs

import (
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/c/hello.txt", []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/c/hello.txt")
	if err != nil || string(data) != "world" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if fs.TotalBytes() != 5 {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
	// Overwrite adjusts byte accounting.
	if err := fs.WriteFile("/a/b/c/hello.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if fs.TotalBytes() != 2 {
		t.Fatalf("TotalBytes after overwrite = %d", fs.TotalBytes())
	}
}

func TestPathErrors(t *testing.T) {
	fs := New()
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing read: %v", err)
	}
	if err := fs.WriteFile("/nodir/file", nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("write into missing dir: %v", err)
	}
	fs.MkdirAll("/d")
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrExist) {
		t.Fatalf("re-mkdir: %v", err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir: %v", err)
	}
	fs.WriteFile("/f", []byte("x"))
	if err := fs.MkdirAll("/f/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mkdir through file: %v", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	fs.MkdirAll("/dir")
	fs.WriteFile("/dir/zebra", []byte("z"))
	fs.WriteFile("/dir/apple", []byte("aa"))
	fs.Mkdir("/dir/mid")
	entries, err := fs.ReadDir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Name != "apple" || entries[1].Name != "mid" || entries[2].Name != "zebra" {
		t.Fatalf("entries = %+v", entries)
	}
	if !entries[1].IsDir || entries[0].Size != 2 {
		t.Fatalf("metadata wrong: %+v", entries)
	}
}

func TestRemoveSemantics(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d/sub")
	fs.WriteFile("/d/sub/f", []byte("data"))
	if err := fs.Remove("/d/sub"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty: %v", err)
	}
	if err := fs.Remove("/d/sub/f"); err != nil {
		t.Fatal(err)
	}
	if fs.TotalBytes() != 0 {
		t.Fatal("bytes leaked")
	}
	if err := fs.Remove("/d/sub"); err != nil {
		t.Fatal(err)
	}
}

func TestFileHandleReadWriteSeek(t *testing.T) {
	fs := New()
	f, err := fs.Open("/log", O_RDWR|O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	n, err := f.Read(buf)
	if err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("read = %q (%d, %v)", buf[:n], n, err)
	}
	// EOF at end.
	if _, err := f.Read(buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	// Seek end and append.
	if pos, err := f.Seek(0, io.SeekEnd); err != nil || pos != 11 {
		t.Fatalf("seek end = %d, %v", pos, err)
	}
	f.Write([]byte("!"))
	if f.Size() != 12 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(buf); err != ErrClosed {
		t.Fatalf("read after close: %v", err)
	}
	if err := f.Close(); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenFlags(t *testing.T) {
	fs := New()
	// O_CREATE|O_EXCL on existing file fails.
	fs.WriteFile("/x", []byte("abc"))
	if _, err := fs.Open("/x", O_CREATE|O_EXCL|O_RDWR); !errors.Is(err, ErrExist) {
		t.Fatalf("excl: %v", err)
	}
	// O_TRUNC empties the file.
	f, err := fs.Open("/x", O_RDWR|O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("size after trunc = %d", f.Size())
	}
	// Read-only handle rejects writes.
	ro, _ := fs.Open("/x", O_RDONLY)
	if _, err := ro.Write([]byte("no")); err != ErrReadOnly {
		t.Fatalf("write to ro: %v", err)
	}
	// O_APPEND always writes at end.
	f.Write([]byte("base"))
	ap, _ := fs.Open("/x", O_WRONLY|O_APPEND)
	ap.Write([]byte("+tail"))
	data, _ := fs.ReadFile("/x")
	if string(data) != "base+tail" {
		t.Fatalf("append result = %q", data)
	}
	// Opening a missing file without O_CREATE fails.
	if _, err := fs.Open("/missing", O_RDWR); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestTwoHandlesIndependentCursors(t *testing.T) {
	fs := New()
	fs.WriteFile("/shared", []byte("0123456789"))
	a, _ := fs.Open("/shared", O_RDONLY)
	b, _ := fs.Open("/shared", O_RDONLY)
	buf := make([]byte, 3)
	a.Read(buf)
	if string(buf) != "012" {
		t.Fatalf("a read %q", buf)
	}
	b.Read(buf)
	if string(buf) != "012" {
		t.Fatalf("b read %q (cursor shared?)", buf)
	}
	a.Read(buf)
	if string(buf) != "345" {
		t.Fatalf("a second read %q", buf)
	}
}

func TestCloneIndependent(t *testing.T) {
	src := New()
	src.MkdirAll("/app/config")
	src.WriteFile("/app/bin", []byte("binary"))
	src.WriteFile("/app/config/settings", []byte("k=v"))
	dst := src.Clone()
	data, err := dst.ReadFile("/app/config/settings")
	if err != nil || string(data) != "k=v" {
		t.Fatalf("cloned read = %q, %v", data, err)
	}
	// A write to the source does not reach the clone...
	src.WriteFile("/app/bin", []byte("changed"))
	if data, _ = dst.ReadFile("/app/bin"); string(data) != "binary" {
		t.Fatal("clone aliases source")
	}
	// ...and a write to the clone does not reach the source.
	dst.WriteFile("/app/config/settings", []byte("k=w"))
	if data, _ = src.ReadFile("/app/config/settings"); string(data) != "k=v" {
		t.Fatal("source aliases clone")
	}
	if src.TotalBytes() != 10 || dst.TotalBytes() != 9 {
		t.Fatalf("TotalBytes src %d dst %d, want 10 and 9", src.TotalBytes(), dst.TotalBytes())
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New()
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/b/f", []byte("x"))
	for _, p := range []string{"/a/b/f", "a/b/f", "/a//b/f", "/a/./b/f", "/a/b/../b/f"} {
		if _, err := fs.ReadFile(p); err != nil {
			t.Errorf("path %q: %v", p, err)
		}
	}
}

// Property: writing any content then reading returns identical bytes, and
// TotalBytes tracks the sum exactly.
func TestPropertyWriteReadTotal(t *testing.T) {
	f := func(contents [][]byte) bool {
		fs := New()
		var total int64
		for i, c := range contents {
			if i >= 20 {
				break
			}
			name := "/f" + string(rune('a'+i))
			if err := fs.WriteFile(name, c); err != nil {
				return false
			}
			total += int64(len(c))
			back, err := fs.ReadFile(name)
			if err != nil || string(back) != string(c) {
				return false
			}
		}
		return fs.TotalBytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Seek+Write at arbitrary offsets extends files with zero gaps,
// like POSIX sparse writes.
func TestPropertySparseWrites(t *testing.T) {
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{1}
		}
		fs := New()
		h, err := fs.Open("/sparse", O_RDWR|O_CREATE)
		if err != nil {
			return false
		}
		if _, err := h.Seek(int64(off), io.SeekStart); err != nil {
			return false
		}
		if _, err := h.Write(payload); err != nil {
			return false
		}
		data, err := fs.ReadFile("/sparse")
		if err != nil {
			return false
		}
		if len(data) != int(off)+len(payload) {
			return false
		}
		for i := 0; i < int(off); i++ {
			if data[i] != 0 {
				return false
			}
		}
		return string(data[off:]) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
