// Package vfs provides a small in-memory POSIX-like filesystem. It backs
// WASI preopened directories, container root filesystems, and container
// image layers throughout this repository. It is deliberately simple:
// hierarchical directories, regular files, open-file handles with
// independent cursors, and byte-accurate size accounting so the simulated
// OS can charge page-cache usage.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
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

type node struct {
	name     string
	dir      bool
	children map[string]*node
	data     []byte
}

// FS is an in-memory filesystem rooted at "/". All methods are safe for
// concurrent use.
type FS struct {
	mu   sync.RWMutex
	root *node
	// bytes tracks total regular-file bytes for memory accounting.
	bytes int64
}

// New creates an empty filesystem.
func New() *FS {
	return &FS{root: &node{name: "/", dir: true, children: map[string]*node{}}}
}

// TotalBytes returns the sum of all regular file sizes.
func (fs *FS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.bytes
}

// split normalizes p and returns its cleaned components.
func split(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// lookup walks to the node for p. Caller holds at least the read lock.
func (fs *FS) lookup(p string) (*node, error) {
	cur := fs.root
	for _, part := range split(p) {
		if !cur.dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		cur = next
	}
	return cur, nil
}

// lookupParent walks to the parent directory of p and returns it along with
// the final path element.
func (fs *FS) lookupParent(p string) (*node, string, error) {
	parts := split(p)
	if len(parts) == 0 {
		return nil, "", ErrExist
	}
	cur := fs.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		if !next.dir {
			return nil, "", ErrNotDir
		}
		cur = next
	}
	return cur, parts[len(parts)-1], nil
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	parent.children[name] = &node{name: name, dir: true, children: map[string]*node{}}
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, part := range split(p) {
		next, ok := cur.children[part]
		if !ok {
			next = &node{name: part, dir: true, children: map[string]*node{}}
			cur.children[part] = next
		} else if !next.dir {
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
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if existing, ok := parent.children[name]; ok {
		if existing.dir {
			return ErrIsDir
		}
		fs.bytes -= int64(len(existing.data))
	}
	parent.children[name] = &node{name: name, data: append([]byte(nil), data...)}
	fs.bytes += int64(len(data))
	return nil
}

// ReadFile returns a copy of the file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
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
	n, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: n.name, Size: int64(len(n.data)), IsDir: n.dir}, nil
}

// ReadDir lists directory entries in lexical order.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
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
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.dir && len(n.children) > 0 {
		return ErrNotEmpty
	}
	fs.bytes -= int64(len(n.data))
	delete(parent.children, name)
	return nil
}

func subtreeBytes(n *node) int64 {
	total := int64(len(n.data))
	for _, c := range n.children {
		total += subtreeBytes(c)
	}
	return total
}

// CopyTree copies src (file or directory) from one filesystem into dst at
// dstPath. It is used by the snapshotter to materialize image layers.
func CopyTree(dst *FS, dstPath string, src *FS, srcPath string) error {
	info, err := src.Stat(srcPath)
	if err != nil {
		return err
	}
	if !info.IsDir {
		data, err := src.ReadFile(srcPath)
		if err != nil {
			return err
		}
		return dst.WriteFile(dstPath, data)
	}
	if err := dst.MkdirAll(dstPath); err != nil {
		return err
	}
	entries, err := src.ReadDir(srcPath)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := CopyTree(dst, path.Join(dstPath, e.Name), src, path.Join(srcPath, e.Name)); err != nil {
			return err
		}
	}
	return nil
}

// File is an open handle with its own cursor.
type File struct {
	fs     *FS
	node   *node
	pos    int64
	flags  int
	closed bool
	mu     sync.Mutex
}

// Open opens p with the given flags, creating it when O_CREATE is set.
func (fs *FS) Open(p string, flags int) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		if flags&O_CREATE == 0 {
			return nil, err
		}
		parent, name, perr := fs.lookupParent(p)
		if perr != nil {
			return nil, perr
		}
		if !parent.dir {
			return nil, ErrNotDir
		}
		n = &node{name: name}
		parent.children[name] = n
	} else {
		if flags&O_EXCL != 0 && flags&O_CREATE != 0 {
			return nil, fmt.Errorf("%w: %s", ErrExist, p)
		}
		if n.dir && flags&(O_WRONLY|O_RDWR) != 0 {
			return nil, ErrIsDir
		}
		if flags&O_TRUNC != 0 && !n.dir {
			fs.bytes -= int64(len(n.data))
			n.data = nil
		}
	}
	return &File{fs: fs, node: n, flags: flags}, nil
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
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(b, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

// Write implements io.Writer, extending the file as needed.
func (f *File) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.flags&(O_WRONLY|O_RDWR) == 0 {
		return 0, ErrReadOnly
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.flags&O_APPEND != 0 {
		f.pos = int64(len(f.node.data))
	}
	end := f.pos + int64(len(b))
	if end > int64(len(f.node.data)) {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.fs.bytes += end - int64(len(f.node.data))
		f.node.data = grown
	}
	copy(f.node.data[f.pos:], b)
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
		base = int64(len(f.node.data))
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

// Size returns the current file size.
func (f *File) Size() int64 {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return int64(len(f.node.data))
}

// IsDir reports whether the handle refers to a directory.
func (f *File) IsDir() bool { return f.node.dir }

// Name returns the base name of the file.
func (f *File) Name() string { return f.node.name }

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
