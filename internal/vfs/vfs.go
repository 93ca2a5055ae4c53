// Package vfs provides a small in-memory POSIX-like filesystem. It backs
// WASI preopened directories, container root filesystems, and container
// image layers throughout this repository. It is deliberately simple:
// hierarchical directories, regular files, open-file handles with
// independent cursors, and byte-accurate size accounting so the simulated
// OS can charge page-cache usage.
//
// Filesystems are copy-on-write, as an overlayfs snapshot shares the image
// layer below it: Clone shares every node with its source. A node carries
// the stamp of the one FS that may change it in place, and Clone gives both
// sides fresh stamps. The first write on either side copies into the writer
// the directories on the written path (and a written file with its bytes).
package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Common filesystem errors.
var (
	ErrNotExist  = errors.New("vfs: file does not exist")
	ErrExist     = errors.New("vfs: file already exists")
	ErrNotDir    = errors.New("vfs: not a directory")
	ErrIsDir     = errors.New("vfs: is a directory")
	ErrNotEmpty  = errors.New("vfs: directory not empty")
	ErrReadOnly  = errors.New("vfs: read-only file handle")
	ErrClosed    = errors.New("vfs: file handle closed")
	ErrBadCursor = errors.New("vfs: invalid seek")
)

// Open flags, a subset of POSIX semantics.
const (
	O_RDONLY = 0
	O_WRONLY = 1
	O_RDWR   = 2
	O_CREATE = 0x40
	O_TRUNC  = 0x200
	O_APPEND = 0x400
	O_EXCL   = 0x80
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}

// ids issues FS stamps and file numbers; 0 is never issued.
var ids atomic.Uint64

type node struct {
	owner    uint64 // stamp of the FS that may change this node in place
	ino      uint64 // the file's number, kept by its copies; 0 for directories
	name     string
	dir      bool
	children map[string]*node
	data     []byte
}

// FS is an in-memory filesystem rooted at "/". All methods are safe for
// concurrent use.
type FS struct {
	mu    sync.RWMutex
	root  *node
	stamp uint64 // nodes whose owner is stamp are private to this FS
	// bytes tracks total regular-file bytes for memory accounting.
	bytes int64
}

// New creates an empty filesystem.
func New() *FS {
	fs := &FS{stamp: ids.Add(1)}
	fs.root = fs.newDir("/")
	return fs
}

// Clone returns a copy-on-write snapshot of fs in O(1): the two share every
// node, and a write on either side is never seen by the other.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stamp = ids.Add(1) // what fs owned is now shared
	return &FS{root: fs.root, stamp: ids.Add(1), bytes: fs.bytes}
}

// TotalBytes returns the sum of all regular file sizes.
func (fs *FS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.bytes
}

func (fs *FS) newDir(name string) *node {
	return &node{owner: fs.stamp, name: name, dir: true, children: map[string]*node{}}
}

func (fs *FS) newFile(name string, data []byte) *node {
	return &node{owner: fs.stamp, ino: ids.Add(1), name: name, data: data}
}

// private returns n if fs may change it in place, else fs's own copy of it:
// a directory's child map (not the children) or a file's bytes are copied.
func (fs *FS) private(n *node) *node {
	if n.owner == fs.stamp {
		return n
	}
	c := *n
	c.owner, c.children, c.data = fs.stamp, maps.Clone(n.children), bytes.Clone(n.data)
	return &c
}

// own makes every node from the root to the existing path parts private to
// fs and returns the last one. Caller holds the write lock.
func (fs *FS) own(parts []string) *node {
	fs.root = fs.private(fs.root)
	cur := fs.root
	for _, part := range parts {
		next := fs.private(cur.children[part])
		cur.children[part] = next
		cur = next
	}
	return cur
}

// split normalizes p and returns its cleaned components.
func split(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// walk returns the node at parts. Caller holds at least the read lock.
func (fs *FS) walk(parts []string) (*node, error) {
	cur := fs.root
	for _, part := range parts {
		if !cur.dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// lookup walks to the node for p and returns it with p's components.
func (fs *FS) lookup(p string) (*node, []string, error) {
	parts := split(p)
	n, err := fs.walk(parts)
	if err == ErrNotExist {
		err = fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return n, parts, err
}

// lookupParent walks to the parent directory of p and returns it along with
// p's components; the last one names the entry in the parent.
func (fs *FS) lookupParent(p string) (*node, []string, error) {
	parts := split(p)
	if len(parts) == 0 {
		return nil, nil, ErrExist
	}
	cur := fs.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		if !next.dir {
			return nil, nil, ErrNotDir
		}
		cur = next
	}
	return cur, parts, nil
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, parts, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	fs.own(parts[:len(parts)-1]).children[name] = fs.newDir(name)
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts := split(p)
	cur := fs.root
	for i, part := range parts {
		next, ok := cur.children[part]
		if !ok {
			cur = fs.own(parts[:i])
			for _, part := range parts[i:] {
				next = fs.newDir(part)
				cur.children[part] = next
				cur = next
			}
			return nil
		}
		if !next.dir {
			return ErrNotDir
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces a regular file with the given contents.
func (fs *FS) WriteFile(p string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, parts, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	if existing, ok := parent.children[name]; ok {
		if existing.dir {
			return ErrIsDir
		}
		fs.bytes -= int64(len(existing.data))
	}
	fs.own(parts[:len(parts)-1]).children[name] = fs.newFile(name, bytes.Clone(data))
	fs.bytes += int64(len(data))
	return nil
}

// ReadFile returns a copy of the file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, _, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, ErrIsDir
	}
	return append([]byte(nil), n.data...), nil
}

// Stat returns metadata for the path.
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, _, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: n.name, Size: int64(len(n.data)), IsDir: n.dir}, nil
}

// ReadDir lists directory entries in lexical order.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, _, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	out := make([]FileInfo, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, FileInfo{Name: c.name, Size: int64(len(c.data)), IsDir: c.dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, parts, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.dir && len(n.children) > 0 {
		return ErrNotEmpty
	}
	fs.bytes -= int64(len(n.data))
	delete(fs.own(parts[:len(parts)-1]).children, name)
	return nil
}

// File is an open handle with its own cursor. It names a file, not a node:
// the file's node on the handle's path (a copy, once a write after a Clone
// copied it) is what the handle reads and writes while the file stays linked.
type File struct {
	fs     *FS
	node   *node
	parts  []string
	pos    int64
	flags  int
	closed bool
	mu     sync.Mutex
}

// Open opens p with the given flags, creating it when O_CREATE is set.
func (fs *FS) Open(p string, flags int) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, parts, err := fs.lookup(p)
	if err != nil {
		if flags&O_CREATE == 0 {
			return nil, err
		}
		_, parts, err = fs.lookupParent(p)
		if err != nil {
			return nil, err
		}
		name := parts[len(parts)-1]
		n = fs.newFile(name, nil)
		fs.own(parts[:len(parts)-1]).children[name] = n
	} else {
		if flags&O_EXCL != 0 && flags&O_CREATE != 0 {
			return nil, fmt.Errorf("%w: %s", ErrExist, p)
		}
		if n.dir && flags&(O_WRONLY|O_RDWR) != 0 {
			return nil, ErrIsDir
		}
		if flags&O_TRUNC != 0 && !n.dir {
			fs.bytes -= int64(len(n.data))
			n = fs.own(parts)
			n.data = nil
		}
	}
	return &File{fs: fs, node: n, parts: parts, flags: flags}, nil
}

// file re-reads the handle's file from its path and reports whether the
// file is still linked there; an unlinked file keeps the node it had.
// Caller holds f.mu and at least fs's read lock.
func (f *File) file() (*node, bool) {
	if n, _ := f.fs.walk(f.parts); n != nil && n.ino == f.node.ino {
		f.node = n
		return n, true
	}
	return f.node, false
}

// Read implements io.Reader.
func (f *File) Read(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	if f.pos >= f.size() {
		return 0, io.EOF
	}
	n := copy(b, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

// Write implements io.Writer, extending the file as needed. The first
// write to a file shared with a Clone copies it into the handle's FS; a
// write to an unlinked file changes no linked file and no byte count.
func (f *File) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.flags&(O_WRONLY|O_RDWR) == 0 {
		return 0, ErrReadOnly
	}
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, linked := f.file()
	if linked {
		n = fs.own(f.parts)
	} else {
		n = fs.private(n)
	}
	f.node = n
	if f.flags&O_APPEND != 0 {
		f.pos = int64(len(n.data))
	}
	end := f.pos + int64(len(b))
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		if linked {
			fs.bytes += end - int64(len(n.data))
		}
		n.data = grown
	}
	copy(n.data[f.pos:], b)
	f.pos = end
	return len(b), nil
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		f.fs.mu.RLock()
		base = f.size()
		f.fs.mu.RUnlock()
	default:
		return 0, ErrBadCursor
	}
	np := base + offset
	if np < 0 {
		return 0, ErrBadCursor
	}
	f.pos = np
	return np, nil
}

// size is the file's current size. Caller holds f.mu and fs's read lock.
func (f *File) size() int64 {
	n, _ := f.file()
	return int64(len(n.data))
}

// Size returns the current file size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return f.size()
}

// Name returns the base name of the file.
func (f *File) Name() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.node.name
}

// Close releases the handle.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
