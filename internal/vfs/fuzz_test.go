package vfs

import (
	"bytes"
	"errors"
	"io"
	"maps"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The clone oracle: a random program of path writes, handle opens, writes,
// seeks and reads, and Clones (clones of clones included) runs over a source
// FS and up to four clones, and after every step each FS must read like a
// model that holds one independent path -> bytes map per FS. A byte that
// leaks through a shared node into a sibling, or a write that is lost,
// shows as a ReadFile, ReadDir, Stat or TotalBytes mismatch.

// Opcodes of a clone program; each is followed by its argument bytes.
const (
	opWriteFile = iota // fs, path, data
	opMkdirAll         // fs, path
	opMkdir            // fs, path
	opRemove           // fs, path
	opOpen             // fs, path, flags
	opWrite            // handle, data
	opSeek             // handle, offset, whence
	opRead             // handle, n
	opClone            // fs
	numOps
)

const (
	maxFS      = 5 // the source and up to four clones
	maxHandles = 8
)

// openFlags are the flag sets opOpen picks from.
var openFlags = []int{
	O_RDONLY, O_WRONLY, O_RDWR, O_RDWR | O_CREATE, O_WRONLY | O_CREATE | O_TRUNC,
	O_RDWR | O_TRUNC, O_WRONLY | O_APPEND, O_RDWR | O_CREATE | O_EXCL, O_RDONLY | O_CREATE,
}

// fuzzPath decodes one byte into "/" or a path of one to three components,
// each "a" or "b" (15 paths in all).
func fuzzPath(b byte) string {
	v := b % 16
	if v == 15 {
		return "/"
	}
	p := ""
	for i := 0; i <= int(v)/5; i++ {
		p += "/" + string("ab"[(b>>(4+i))&1])
	}
	return p
}

// allPaths is every path fuzzPath can produce.
func allPaths() []string {
	seen := map[string]bool{}
	var out []string
	for b := 0; b < 256; b++ {
		if p := fuzzPath(byte(b)); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// modelFS is one FS as the oracle sees it: independent maps, deep-copied by
// a Clone.
type modelFS struct {
	files map[string][]byte
	dirs  map[string]bool // "/" included
}

func (m *modelFS) clone() *modelFS {
	c := &modelFS{files: map[string][]byte{}, dirs: maps.Clone(m.dirs)}
	for p, b := range m.files {
		c.files[p] = bytes.Clone(b)
	}
	return c
}

// walk mirrors FS.walk: every component but the last must be a directory.
func (m *modelFS) walk(p string) error {
	if p == "/" {
		return nil
	}
	parts := strings.Split(p[1:], "/")
	for i := range parts {
		cur := "/" + strings.Join(parts[:i+1], "/")
		if i > 0 {
			if _, ok := m.files[path.Dir(cur)]; ok {
				return ErrNotDir
			}
		}
		if _, ok := m.files[cur]; !ok && !m.dirs[cur] {
			return ErrNotExist
		}
	}
	return nil
}

// parent mirrors FS.lookupParent: a missing component before a file one is
// reported first.
func (m *modelFS) parent(p string) error {
	if p == "/" {
		return ErrExist
	}
	parts := strings.Split(p[1:], "/")
	for i := range parts[:len(parts)-1] {
		cur := "/" + strings.Join(parts[:i+1], "/")
		if _, ok := m.files[cur]; ok {
			return ErrNotDir
		}
		if !m.dirs[cur] {
			return ErrNotExist
		}
	}
	return nil
}

func (m *modelFS) total() int64 {
	var n int64
	for _, b := range m.files {
		n += int64(len(b))
	}
	return n
}

func (m *modelFS) readDir(p string) []FileInfo {
	var out []FileInfo
	for d := range m.dirs {
		if d != "/" && path.Dir(d) == p {
			out = append(out, FileInfo{Name: path.Base(d), IsDir: true})
		}
	}
	for f, b := range m.files {
		if path.Dir(f) == p {
			out = append(out, FileInfo{Name: path.Base(f), Size: int64(len(b))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// modelHandle is an open handle as the oracle sees it: it names its path in
// its FS until that file is removed or replaced, then keeps its own bytes.
type modelHandle struct {
	f      *File
	fs     int
	path   string
	flags  int
	pos    int64
	linked bool
	dir    bool
	orphan []byte
}

func (h *modelHandle) data(ms []*modelFS) []byte {
	if h.linked && !h.dir {
		return ms[h.fs].files[h.path]
	}
	return h.orphan
}

// errClass names the sentinel an error wraps, so the FS and the model are
// compared by kind, not by message.
func errClass(err error) error {
	if err == nil {
		return nil
	}
	for _, s := range []error{ErrNotExist, ErrExist, ErrNotDir, ErrIsDir, ErrNotEmpty, ErrReadOnly, ErrClosed, ErrBadCursor, io.EOF} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// cloneProgram runs one program and reports the first divergence.
type cloneProgram struct {
	t       *testing.T
	in      []byte
	fss     []*FS
	models  []*modelFS
	handles []*modelHandle
	paths   []string
}

func (c *cloneProgram) next() byte {
	if len(c.in) == 0 {
		return 0
	}
	b := c.in[0]
	c.in = c.in[1:]
	return b
}

func (c *cloneProgram) data(step int) []byte {
	b := c.next()
	out := make([]byte, b%8)
	for i := range out {
		out[i] = byte(step*7+i) ^ b
	}
	return out
}

func (c *cloneProgram) expectErr(step int, what string, got, want error) {
	if errClass(got) != want {
		c.t.Fatalf("step %d: %s: err %v, model %v", step, what, got, want)
	}
}

// detach unlinks the model handles of FS i that name p, as a Remove or a
// replacing WriteFile does to the real ones.
func (c *cloneProgram) detach(i int, p string) {
	for _, h := range c.handles {
		if h.fs == i && h.path == p && h.linked {
			h.orphan = bytes.Clone(h.data(c.models))
			h.linked = false
		}
	}
}

func (c *cloneProgram) step(step int) {
	op := c.next() % numOps
	switch op {
	case opWriteFile, opMkdirAll, opMkdir, opRemove, opOpen:
		i := int(c.next()) % len(c.fss)
		fs, m, p := c.fss[i], c.models[i], fuzzPath(c.next())
		switch op {
		case opWriteFile:
			data := c.data(step)
			want := m.parent(p)
			if want == nil && m.dirs[p] {
				want = ErrIsDir
			}
			c.expectErr(step, "WriteFile "+p, fs.WriteFile(p, data), want)
			if want == nil {
				c.detach(i, p)
				m.files[p] = data
			}
		case opMkdirAll:
			var want error
			parts := strings.Split(p[1:], "/")
			for k := range parts {
				cur := "/" + strings.Join(parts[:k+1], "/")
				if _, ok := m.files[cur]; ok {
					want = ErrNotDir
					break
				}
				if !m.dirs[cur] && p != "/" {
					for ; k < len(parts); k++ {
						m.dirs["/"+strings.Join(parts[:k+1], "/")] = true
					}
					break
				}
			}
			c.expectErr(step, "MkdirAll "+p, fs.MkdirAll(p), want)
		case opMkdir:
			want := m.parent(p)
			if _, ok := m.files[p]; want == nil && (ok || m.dirs[p]) {
				want = ErrExist
			}
			c.expectErr(step, "Mkdir "+p, fs.Mkdir(p), want)
			if want == nil {
				m.dirs[p] = true
			}
		case opRemove:
			want := m.parent(p)
			_, isFile := m.files[p]
			if want == nil && !isFile && !m.dirs[p] {
				want = ErrNotExist
			}
			if want == nil && m.dirs[p] && len(m.readDir(p)) > 0 {
				want = ErrNotEmpty
			}
			c.expectErr(step, "Remove "+p, fs.Remove(p), want)
			if want == nil {
				c.detach(i, p)
				delete(m.files, p)
				delete(m.dirs, p)
			}
		case opOpen:
			flags := openFlags[int(c.next())%len(openFlags)]
			f, err := fs.Open(p, flags)
			want := m.walk(p)
			_, isFile := m.files[p]
			switch {
			case want != nil && flags&O_CREATE == 0:
			case want != nil:
				if want = m.parent(p); want == nil {
					m.files[p] = nil
				}
			case flags&O_EXCL != 0 && flags&O_CREATE != 0:
				want = ErrExist
			case !isFile && flags&(O_WRONLY|O_RDWR) != 0:
				want = ErrIsDir
			case isFile && flags&O_TRUNC != 0:
				m.files[p] = nil
			}
			c.expectErr(step, "Open "+p, err, want)
			if want == nil && len(c.handles) < maxHandles {
				_, isFile = m.files[p]
				c.handles = append(c.handles, &modelHandle{f: f, fs: i, path: p, flags: flags, linked: true, dir: !isFile})
			}
		}
	case opWrite, opSeek, opRead:
		if len(c.handles) == 0 {
			return
		}
		h := c.handles[int(c.next())%len(c.handles)]
		if !h.linked {
			// The file is gone from its FS: what the handle does must not
			// reach any linked file, which check sees.
			switch op {
			case opWrite:
				h.f.Write(c.data(step))
			case opSeek:
				h.f.Seek(int64(int8(c.next())%16), int(c.next()%4))
			case opRead:
				h.f.Read(make([]byte, c.next()%8))
			}
			return
		}
		switch op {
		case opWrite:
			b := c.data(step)
			n, err := h.f.Write(b)
			var want error
			if h.flags&(O_WRONLY|O_RDWR) == 0 {
				want = ErrReadOnly
			}
			c.expectErr(step, "Write "+h.path, err, want)
			if want != nil {
				return
			}
			if n != len(b) {
				c.t.Fatalf("step %d: Write %s wrote %d of %d", step, h.path, n, len(b))
			}
			d := h.data(c.models)
			if h.flags&O_APPEND != 0 {
				h.pos = int64(len(d))
			}
			if end := h.pos + int64(len(b)); end > int64(len(d)) {
				d = append(d, make([]byte, end-int64(len(d)))...)
			}
			copy(d[h.pos:], b)
			h.pos += int64(len(b))
			if h.linked {
				c.models[h.fs].files[h.path] = d
			} else {
				h.orphan = d
			}
		case opSeek:
			off, whence := int64(int8(c.next())%16), int(c.next()%4)
			got, err := h.f.Seek(off, whence)
			base, want := int64(0), error(nil)
			switch whence {
			case io.SeekCurrent:
				base = h.pos
			case io.SeekEnd:
				base = int64(len(h.data(c.models)))
			case 3:
				want = ErrBadCursor
			}
			if want == nil && base+off < 0 {
				want = ErrBadCursor
			}
			c.expectErr(step, "Seek "+h.path, err, want)
			if want == nil {
				if h.pos = base + off; got != h.pos {
					c.t.Fatalf("step %d: Seek %s = %d, model %d", step, h.path, got, h.pos)
				}
			}
		case opRead:
			buf := make([]byte, c.next()%8)
			n, err := h.f.Read(buf)
			d, want := h.data(c.models), error(nil)
			if h.pos >= int64(len(d)) {
				want = io.EOF
			}
			c.expectErr(step, "Read "+h.path, err, want)
			if want == nil {
				exp := d[h.pos:]
				exp = exp[:min(len(exp), len(buf))]
				if !bytes.Equal(buf[:n], exp) {
					c.t.Fatalf("step %d: Read %s = %q, model %q", step, h.path, buf[:n], exp)
				}
				h.pos += int64(n)
			}
		}
	case opClone:
		if len(c.fss) == maxFS {
			return
		}
		i := int(c.next()) % len(c.fss)
		c.fss = append(c.fss, c.fss[i].Clone())
		c.models = append(c.models, c.models[i].clone())
	}
}

// check compares every FS with its model on every path.
func (c *cloneProgram) check(step int) {
	for i, fs := range c.fss {
		m := c.models[i]
		if got, want := fs.TotalBytes(), m.total(); got != want {
			c.t.Fatalf("step %d: fs %d TotalBytes = %d, model %d", step, i, got, want)
		}
		for _, p := range c.paths {
			data, isFile := m.files[p]
			info, err := fs.Stat(p)
			want := m.walk(p)
			c.expectErr(step, "Stat "+p, err, want)
			if want == nil && (info.IsDir == isFile || info.Size != int64(len(data))) {
				c.t.Fatalf("step %d: fs %d Stat %s = %+v, model file=%v size %d", step, i, p, info, isFile, len(data))
			}
			got, err := fs.ReadFile(p)
			if want == nil && !isFile {
				want = ErrIsDir
			}
			c.expectErr(step, "ReadFile "+p, err, want)
			if want == nil && !bytes.Equal(got, data) {
				c.t.Fatalf("step %d: fs %d ReadFile %s = %q, model %q", step, i, p, got, data)
			}
			entries, err := fs.ReadDir(p)
			want = m.walk(p)
			if want == nil && isFile {
				want = ErrNotDir
			}
			c.expectErr(step, "ReadDir "+p, err, want)
			if exp := m.readDir(p); want == nil && !slices.Equal(entries, exp) {
				c.t.Fatalf("step %d: fs %d ReadDir %s = %+v, model %+v", step, i, p, entries, exp)
			}
		}
	}
}

func runCloneProgram(t *testing.T, in []byte) {
	c := &cloneProgram{
		t: t, in: in, fss: []*FS{New()},
		models: []*modelFS{{files: map[string][]byte{}, dirs: map[string]bool{"/": true}}},
		paths:  allPaths(),
	}
	for step := 0; len(c.in) > 0 && step < 64; step++ {
		c.step(step)
		c.check(step)
	}
}

// enc builds a clone program from opcodes and their argument bytes.
func enc(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// pathByte is the fuzzPath byte of a one- or two-component path of "a"/"b".
func pathByte(p string) byte {
	for b := 0; b < 256; b++ {
		if fuzzPath(byte(b)) == p {
			return byte(b)
		}
	}
	panic("no byte for " + p)
}

func flagByte(flags int) byte {
	for i, f := range openFlags {
		if f == flags {
			return byte(i)
		}
	}
	panic("unknown flags")
}

// Seeds. The first is the handle case: a write handle opened before Clone
// writes after it, and the write must not reach the clone.
var cloneSeeds = [][]byte{
	enc([]byte{opWriteFile, 0, pathByte("/a"), 5},
		[]byte{opOpen, 0, pathByte("/a"), flagByte(O_RDWR)},
		[]byte{opClone, 0},
		[]byte{opWrite, 0, 3},
		[]byte{opWrite, 0, 7}),
	// Two handles on one file across a Clone: the second sees the first's
	// copy-up, in the source and in a clone of the clone.
	enc([]byte{opMkdirAll, 0, pathByte("/b/a")},
		[]byte{opWriteFile, 0, pathByte("/b/a/b"), 6},
		[]byte{opOpen, 0, pathByte("/b/a/b"), flagByte(O_RDWR)},
		[]byte{opOpen, 0, pathByte("/b/a/b"), flagByte(O_RDONLY)},
		[]byte{opClone, 0},
		[]byte{opWrite, 0, 2},
		[]byte{opRead, 1, 7},
		[]byte{opClone, 1},
		[]byte{opOpen, 2, pathByte("/b/a/b"), flagByte(O_WRONLY | O_APPEND)},
		[]byte{opWrite, 2, 4},
		[]byte{opRemove, 1, pathByte("/b/a/b")},
		[]byte{opMkdir, 1, pathByte("/b/a/b")}),
	// Remove and truncate shared files on both sides, and write through a
	// handle whose file was removed.
	enc([]byte{opMkdirAll, 0, pathByte("/a/b")},
		[]byte{opWriteFile, 0, pathByte("/a/b/a"), 7},
		[]byte{opOpen, 0, pathByte("/a/b/a"), flagByte(O_RDWR)},
		[]byte{opClone, 0},
		[]byte{opRemove, 0, pathByte("/a/b/a")},
		[]byte{opWrite, 0, 5},
		[]byte{opSeek, 0, 0xfe, 2},
		[]byte{opOpen, 1, pathByte("/a/b/a"), flagByte(O_RDWR | O_TRUNC)},
		[]byte{opRemove, 1, pathByte("/a/b")},
		[]byte{opWriteFile, 1, pathByte("/a/a"), 3}),
}

func FuzzVFSClone(f *testing.F) {
	for _, s := range cloneSeeds {
		f.Add(s)
	}
	f.Fuzz(runCloneProgram)
}

// TestCloneWriteHandleOpenedBefore: a handle opened before a Clone writes
// into its own FS only, and the clone keeps the bytes it was cloned with.
func TestCloneWriteHandleOpenedBefore(t *testing.T) {
	src := New()
	src.WriteFile("/state", []byte("base"))
	h, err := src.Open("/state", O_RDWR|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	h.Write([]byte("+src"))
	if got, _ := dst.ReadFile("/state"); string(got) != "base" {
		t.Fatalf("clone reads %q after a source handle wrote", got)
	}
	if got, _ := src.ReadFile("/state"); string(got) != "base+src" {
		t.Fatalf("source reads %q", got)
	}
	if src.TotalBytes() != 8 || dst.TotalBytes() != 4 {
		t.Fatalf("TotalBytes src %d dst %d, want 8 and 4", src.TotalBytes(), dst.TotalBytes())
	}
}

// TestCloneAllocs: a Clone is one allocation, however large the tree.
func TestCloneAllocs(t *testing.T) {
	src := New()
	src.MkdirAll("/usr/lib")
	for _, p := range []string{"/usr/lib/a", "/usr/lib/b", "/app"} {
		src.WriteFile(p, make([]byte, 4096))
	}
	if n := testing.AllocsPerRun(100, func() { src.Clone() }); n != 1 {
		t.Fatalf("Clone allocates %v times, want 1", n)
	}
}

// TestCloneConcurrent runs Clones, clones of clones, and writes on the
// source and every clone from many goroutines (meant for -race): each
// clone reads the source as it was at one instant, keeps reading it that
// way while the source moves on, and no clone's write reaches another FS.
func TestCloneConcurrent(t *testing.T) {
	src := New()
	src.MkdirAll("/tmp")
	src.WriteFile("/v", []byte{0})
	h, err := src.Open("/log", O_RDWR|O_CREATE|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // the source moves on: /v counts up, /log grows
		defer writer.Done()
		for v := 1; v < 2000; v++ {
			select {
			case <-stop:
				return
			default:
			}
			src.WriteFile("/v", []byte{byte(v)})
			h.Write([]byte{byte(v)})
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := src.Clone()
				if i%2 == 1 {
					c = c.Clone()
				}
				v, err := c.ReadFile("/v")
				if err != nil || len(v) != 1 {
					t.Errorf("clone reads /v = %v, %v", v, err)
					return
				}
				name := "/tmp/" + string(rune('a'+g))
				c.WriteFile(name, []byte{byte(g)})
				f, err := c.Open("/log", O_RDWR|O_APPEND)
				if err != nil {
					t.Error(err)
					return
				}
				f.Write([]byte("clone"))
				if again, _ := c.ReadFile("/v"); !bytes.Equal(again, v) {
					t.Errorf("clone's /v moved from %v to %v", v, again)
				}
				if _, err := src.Stat(name); err == nil {
					t.Errorf("clone write %s reached the source", name)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if log, _ := src.ReadFile("/log"); bytes.Contains(log, []byte("clone")) {
		t.Fatal("a clone's handle write reached the source's /log")
	}
}
