// Package wasi implements the wasi_snapshot_preview1 system interface on
// top of the exec VM and the vfs in-memory filesystem: command-line
// arguments, environment variables, stdio, preopened directories, file I/O,
// clocks, randomness, and process exit. The clock and random sources are
// injectable so container runs are fully deterministic under the discrete
// event simulator.
package wasi

import (
	"encoding/binary"
	"io"
	"math/rand"
	"path"

	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
)

// ModuleName is the import module name guests use.
const ModuleName = "wasi_snapshot_preview1"

// WASI errno values (subset used by this implementation).
const (
	ErrnoSuccess  uint32 = 0
	ErrnoBadf     uint32 = 8
	ErrnoExist    uint32 = 20
	ErrnoFault    uint32 = 21
	ErrnoInval    uint32 = 28
	ErrnoIO       uint32 = 29
	ErrnoIsdir    uint32 = 31
	ErrnoNoent    uint32 = 44
	ErrnoNosys    uint32 = 52
	ErrnoNotdir   uint32 = 54
	ErrnoNotempty uint32 = 55
	ErrnoSpipe    uint32 = 70
	ErrnoNotsup   uint32 = 58
)

// WASI filetype values.
const (
	filetypeUnknown      = 0
	filetypeDirectory    = 3
	filetypeRegularFile  = 4
	filetypeCharacterDev = 2
)

// Preopen maps a guest path to a directory in a filesystem.
type Preopen struct {
	GuestPath string
	FS        *vfs.FS
	HostPath  string
}

// Config configures one WASI instance (one "process").
type Config struct {
	Args []string
	Env  []string // "KEY=VALUE" entries
	// Stdin supplies fd 0; nil means always-EOF.
	Stdin io.Reader
	// Stdout and Stderr receive fd 1 and 2 writes; nil discards.
	Stdout io.Writer
	Stderr io.Writer
	// Preopens are mounted after the three stdio fds, in order, at fd 3+.
	Preopens []Preopen
	// Now returns the current time in nanoseconds; nil yields a fixed epoch.
	Now func() uint64
	// RandSeed seeds the deterministic random_get source.
	RandSeed int64
}

type fdKind int

const (
	fdStdin fdKind = iota
	fdStdout
	fdStderr
	fdDir
	fdFile
)

type fdEntry struct {
	kind      fdKind
	file      *vfs.File
	fs        *vfs.FS
	dirPath   string // absolute path within fs for directories
	preopen   string // guest path if this is a preopened root
	isPreopen bool
}

// P1 is a wasi_snapshot_preview1 implementation bound to one module
// instance ("process").
type P1 struct {
	cfg    Config
	fds    map[int32]*fdEntry
	nextFD int32
	rng    *rand.Rand // seeded from cfg.RandSeed by the first random_get
	// BytesWritten counts fd_write traffic (telemetry for benchmarks).
	BytesWritten int64
	// Exited is set when proc_exit was called.
	Exited   bool
	ExitCode uint32

	// Telemetry handles, nil when observation is disabled (SetObserver):
	// the syscall hot paths then cost one nil check each, no allocations.
	obsWriteBytes *obs.Counter
	obsReadBytes  *obs.Counter
	obsRandBytes  *obs.Counter
	obsExits      *obs.Counter
}

// SetObserver wires telemetry counters for the WASI syscall surface: bytes
// moved through fd_write/fd_read, random_get entropy served, and proc_exit
// calls. Pass nil to disable (the default): a nil telemetry resolves every
// handle to nil without allocating.
func (w *P1) SetObserver(t *obs.Telemetry) {
	w.obsWriteBytes = t.Counter("wasi_fd_write_bytes_total")
	w.obsReadBytes = t.Counter("wasi_fd_read_bytes_total")
	w.obsRandBytes = t.Counter("wasi_random_bytes_total")
	w.obsExits = t.Counter("wasi_proc_exits_total")
}

// New creates a WASI instance from cfg.
func New(cfg Config) *P1 {
	w := &P1{
		cfg:    cfg,
		fds:    make(map[int32]*fdEntry),
		nextFD: 3,
	}
	w.fds[0] = &fdEntry{kind: fdStdin}
	w.fds[1] = &fdEntry{kind: fdStdout}
	w.fds[2] = &fdEntry{kind: fdStderr}
	for _, p := range cfg.Preopens {
		w.fds[w.nextFD] = &fdEntry{
			kind: fdDir, fs: p.FS, dirPath: path.Clean("/" + p.HostPath),
			preopen: p.GuestPath, isPreopen: true,
		}
		w.nextFD++
	}
	return w
}

func (w *P1) now() uint64 {
	if w.cfg.Now != nil {
		return w.cfg.Now()
	}
	return 1_600_000_000_000_000_000 // fixed epoch for determinism
}

// hostFunc is one wasi_snapshot_preview1 function: its signature and the P1
// method (as a method expression) that implements it.
type hostFunc struct {
	typ wasm.FuncType
	fn  func(*P1, *exec.HostContext, []exec.Value) ([]exec.Value, error)
}

// hostFuncs is the whole host surface, built once per process; a P1 binds
// an entry to itself only when an instantiating module imports that name.
var hostFuncs = func() map[string]hostFunc {
	i32 := wasm.ValueTypeI32
	i64 := wasm.ValueTypeI64
	errno := []wasm.ValueType{i32}
	sig := func(params ...wasm.ValueType) wasm.FuncType {
		return wasm.FuncType{Params: params, Results: errno}
	}
	return map[string]hostFunc{
		"args_sizes_get":        {sig(i32, i32), (*P1).argsSizesGet},
		"args_get":              {sig(i32, i32), (*P1).argsGet},
		"environ_sizes_get":     {sig(i32, i32), (*P1).environSizesGet},
		"environ_get":           {sig(i32, i32), (*P1).environGet},
		"clock_time_get":        {sig(i32, i64, i32), (*P1).clockTimeGet},
		"clock_res_get":         {sig(i32, i32), (*P1).clockResGet},
		"fd_write":              {sig(i32, i32, i32, i32), (*P1).fdWrite},
		"fd_read":               {sig(i32, i32, i32, i32), (*P1).fdRead},
		"fd_close":              {sig(i32), (*P1).fdClose},
		"fd_seek":               {sig(i32, i64, i32, i32), (*P1).fdSeek},
		"fd_fdstat_get":         {sig(i32, i32), (*P1).fdFdstatGet},
		"fd_fdstat_set_flags":   {sig(i32, i32), (*P1).fdFdstatSetFlags},
		"fd_prestat_get":        {sig(i32, i32), (*P1).fdPrestatGet},
		"fd_prestat_dir_name":   {sig(i32, i32, i32), (*P1).fdPrestatDirName},
		"fd_filestat_get":       {sig(i32, i32), (*P1).fdFilestatGet},
		"path_open":             {sig(i32, i32, i32, i32, i32, i64, i64, i32, i32), (*P1).pathOpen},
		"fd_readdir":            {sig(i32, i32, i32, i64, i32), (*P1).fdReaddir},
		"path_filestat_get":     {sig(i32, i32, i32, i32, i32), (*P1).pathFilestatGet},
		"path_create_directory": {sig(i32, i32, i32), (*P1).pathCreateDirectory},
		"path_unlink_file":      {sig(i32, i32, i32), (*P1).pathUnlinkFile},
		"path_remove_directory": {sig(i32, i32, i32), (*P1).pathRemoveDirectory},
		"random_get":            {sig(i32, i32), (*P1).randomGet},
		"poll_oneoff":           {sig(i32, i32, i32, i32), (*P1).pollOneoff},
		"sched_yield":           {sig(), (*P1).schedYield},
		"proc_exit":             {wasm.FuncType{Params: []wasm.ValueType{i32}}, (*P1).procExit},
	}
}()

// Register installs the host module into the store. Functions are bound to
// w as imports resolve them, so a guest pays for the names it links.
func (w *P1) Register(s *exec.Store) {
	s.NewHostModule(ModuleName).SetFuncLookup(w.bind)
}

// bind resolves one imported name to a host function on w, nil if unknown.
func (w *P1) bind(name string) *exec.HostFunc {
	h, ok := hostFuncs[name]
	if !ok {
		return nil
	}
	return &exec.HostFunc{Type: h.typ, Fn: func(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
		return h.fn(w, ctx, args)
	}}
}

func errnoVal(e uint32) []exec.Value { return []exec.Value{uint64(e)} }

// argsSizesGet writes argc and the total buffer size.
func (w *P1) argsSizesGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	total := 0
	for _, a := range w.cfg.Args {
		total += len(a) + 1
	}
	mem := ctx.Memory
	if !mem.WriteUint32(exec.AsU32(args[0]), uint32(len(w.cfg.Args))) ||
		!mem.WriteUint32(exec.AsU32(args[1]), uint32(total)) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) argsGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	return w.writeStringList(ctx, w.cfg.Args, exec.AsU32(args[0]), exec.AsU32(args[1]))
}

func (w *P1) environSizesGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	total := 0
	for _, e := range w.cfg.Env {
		total += len(e) + 1
	}
	mem := ctx.Memory
	if !mem.WriteUint32(exec.AsU32(args[0]), uint32(len(w.cfg.Env))) ||
		!mem.WriteUint32(exec.AsU32(args[1]), uint32(total)) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) environGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	return w.writeStringList(ctx, w.cfg.Env, exec.AsU32(args[0]), exec.AsU32(args[1]))
}

// nulByte is the string terminator written after each list entry; a package
// variable so writeStringList stays allocation-free per string.
var nulByte = [1]byte{0}

func (w *P1) writeStringList(ctx *exec.HostContext, list []string, ptrs, buf uint32) ([]exec.Value, error) {
	mem := ctx.Memory
	off := buf
	for i, s := range list {
		if !mem.WriteUint32(ptrs+uint32(i*4), off) {
			return errnoVal(ErrnoFault), nil
		}
		if !mem.WriteString(off, s) || !mem.Write(off+uint32(len(s)), nulByte[:]) {
			return errnoVal(ErrnoFault), nil
		}
		off += uint32(len(s)) + 1
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) clockTimeGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	if !ctx.Memory.WriteUint64(exec.AsU32(args[2]), w.now()) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) clockResGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	if !ctx.Memory.WriteUint64(exec.AsU32(args[1]), 1000) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

// readIOVecs gathers the guest's iovec array into slices of guest memory.
// writable selects WritableView for host functions that fill the buffers
// (fd_read): writes into guest memory must land in the dirty-page bitmap or
// the copy-on-write reset would miss them.
func readIOVecs(mem *exec.Memory, iovs, iovsLen uint32, writable bool) ([][]byte, bool) {
	out := make([][]byte, 0, iovsLen)
	for i := uint32(0); i < iovsLen; i++ {
		base, ok1 := mem.ReadUint32(iovs + i*8)
		length, ok2 := mem.ReadUint32(iovs + i*8 + 4)
		if !ok1 || !ok2 {
			return nil, false
		}
		var view []byte
		var ok bool
		if writable {
			view, ok = mem.WritableView(base, length)
		} else {
			view, ok = mem.View(base, length)
		}
		if !ok {
			return nil, false
		}
		out = append(out, view)
	}
	return out, true
}

func (w *P1) fdWrite(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	vecs, okv := readIOVecs(ctx.Memory, exec.AsU32(args[1]), exec.AsU32(args[2]), false)
	if !okv {
		return errnoVal(ErrnoFault), nil
	}
	var written int
	for _, v := range vecs {
		n, err := w.writeTo(ent, v)
		written += n
		if err != nil {
			break
		}
	}
	w.BytesWritten += int64(written)
	w.obsWriteBytes.Add(int64(written))
	if !ctx.Memory.WriteUint32(exec.AsU32(args[3]), uint32(written)) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) writeTo(ent *fdEntry, b []byte) (int, error) {
	switch ent.kind {
	case fdStdout:
		if w.cfg.Stdout != nil {
			return w.cfg.Stdout.Write(b)
		}
		return len(b), nil
	case fdStderr:
		if w.cfg.Stderr != nil {
			return w.cfg.Stderr.Write(b)
		}
		return len(b), nil
	case fdFile:
		return ent.file.Write(b)
	default:
		return 0, vfs.ErrReadOnly
	}
}

func (w *P1) fdRead(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	vecs, okv := readIOVecs(ctx.Memory, exec.AsU32(args[1]), exec.AsU32(args[2]), true)
	if !okv {
		return errnoVal(ErrnoFault), nil
	}
	var total int
	for _, v := range vecs {
		var n int
		var err error
		switch ent.kind {
		case fdStdin:
			if w.cfg.Stdin == nil {
				err = io.EOF
			} else {
				n, err = w.cfg.Stdin.Read(v)
			}
		case fdFile:
			n, err = ent.file.Read(v)
		default:
			return errnoVal(ErrnoIsdir), nil
		}
		total += n
		if err != nil {
			break
		}
		if n < len(v) {
			break
		}
	}
	w.obsReadBytes.Add(int64(total))
	if !ctx.Memory.WriteUint32(exec.AsU32(args[3]), uint32(total)) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) fdClose(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	if ent.file != nil {
		ent.file.Close()
	}
	delete(w.fds, fd)
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) fdSeek(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	if ent.kind != fdFile {
		return errnoVal(ErrnoSpipe), nil
	}
	pos, err := ent.file.Seek(exec.AsI64(args[1]), int(exec.AsU32(args[2])))
	if err != nil {
		return errnoVal(ErrnoInval), nil
	}
	if !ctx.Memory.WriteUint64(exec.AsU32(args[3]), uint64(pos)) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) fdFdstatGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	var buf [24]byte
	switch ent.kind {
	case fdDir:
		buf[0] = filetypeDirectory
	case fdFile:
		buf[0] = filetypeRegularFile
	default:
		buf[0] = filetypeCharacterDev
	}
	// fs_flags, rights_base, rights_inheriting: permissive defaults.
	binary.LittleEndian.PutUint64(buf[8:], ^uint64(0))
	binary.LittleEndian.PutUint64(buf[16:], ^uint64(0))
	if !ctx.Memory.Write(exec.AsU32(args[1]), buf[:]) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) fdFdstatSetFlags(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) fdPrestatGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok || !ent.isPreopen {
		return errnoVal(ErrnoBadf), nil
	}
	var buf [8]byte
	buf[0] = 0 // preopentype::dir
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(ent.preopen)))
	if !ctx.Memory.Write(exec.AsU32(args[1]), buf[:]) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) fdPrestatDirName(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok || !ent.isPreopen {
		return errnoVal(ErrnoBadf), nil
	}
	name := []byte(ent.preopen)
	n := exec.AsU32(args[2])
	if int(n) < len(name) {
		return errnoVal(ErrnoInval), nil
	}
	if !ctx.Memory.Write(exec.AsU32(args[1]), name) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

// writeFilestat fills a WASI filestat struct (64 bytes).
func writeFilestat(mem *exec.Memory, ptr uint32, info vfs.FileInfo, now uint64) bool {
	var buf [64]byte
	binary.LittleEndian.PutUint64(buf[0:], 1) // device
	binary.LittleEndian.PutUint64(buf[8:], uint64(hashName(info.Name)))
	if info.IsDir {
		buf[16] = filetypeDirectory
	} else {
		buf[16] = filetypeRegularFile
	}
	binary.LittleEndian.PutUint64(buf[24:], 1) // nlink
	binary.LittleEndian.PutUint64(buf[32:], uint64(info.Size))
	binary.LittleEndian.PutUint64(buf[40:], now) // atim
	binary.LittleEndian.PutUint64(buf[48:], now) // mtim
	binary.LittleEndian.PutUint64(buf[56:], now) // ctim
	return mem.Write(ptr, buf[:])
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (w *P1) fdFilestatGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	var info vfs.FileInfo
	switch ent.kind {
	case fdFile:
		info = vfs.FileInfo{Name: ent.file.Name(), Size: ent.file.Size()}
	case fdDir:
		info = vfs.FileInfo{Name: ent.dirPath, IsDir: true}
	default:
		info = vfs.FileInfo{Name: "tty"}
	}
	if !writeFilestat(ctx.Memory, exec.AsU32(args[1]), info, w.now()) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

// resolvePath joins a directory fd with a guest-relative path.
func (w *P1) resolvePath(ctx *exec.HostContext, dirfd int32, ptr, length uint32) (*vfs.FS, string, uint32) {
	ent, ok := w.fds[dirfd]
	if !ok || ent.kind != fdDir {
		return nil, "", ErrnoBadf
	}
	rel, okr := ctx.Memory.ReadString(ptr, length)
	if !okr {
		return nil, "", ErrnoFault
	}
	return ent.fs, path.Join(ent.dirPath, rel), ErrnoSuccess
}

// WASI oflags.
const (
	oflagCreat     = 1
	oflagDirectory = 2
	oflagExcl      = 4
	oflagTrunc     = 8
)

// WASI fdflags.
const fdflagAppend = 1

func (w *P1) pathOpen(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fsys, full, errno := w.resolvePath(ctx, int32(exec.AsU32(args[0])), exec.AsU32(args[2]), exec.AsU32(args[3]))
	if errno != ErrnoSuccess {
		return errnoVal(errno), nil
	}
	oflags := exec.AsU32(args[4])
	fdflags := exec.AsU32(args[7])

	// Directory open?
	if info, err := fsys.Stat(full); err == nil && info.IsDir {
		fd := w.nextFD
		w.nextFD++
		w.fds[fd] = &fdEntry{kind: fdDir, fs: fsys, dirPath: full}
		if !ctx.Memory.WriteUint32(exec.AsU32(args[8]), uint32(fd)) {
			return errnoVal(ErrnoFault), nil
		}
		return errnoVal(ErrnoSuccess), nil
	}
	if oflags&oflagDirectory != 0 {
		return errnoVal(ErrnoNotdir), nil
	}

	flags := vfs.O_RDWR
	if oflags&oflagCreat != 0 {
		flags |= vfs.O_CREATE
	}
	if oflags&oflagExcl != 0 {
		flags |= vfs.O_EXCL
	}
	if oflags&oflagTrunc != 0 {
		flags |= vfs.O_TRUNC
	}
	if fdflags&fdflagAppend != 0 {
		flags |= vfs.O_APPEND
	}
	f, err := fsys.Open(full, flags)
	if err != nil {
		return errnoVal(mapVFSError(err)), nil
	}
	fd := w.nextFD
	w.nextFD++
	w.fds[fd] = &fdEntry{kind: fdFile, fs: fsys, file: f}
	if !ctx.Memory.WriteUint32(exec.AsU32(args[8]), uint32(fd)) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func mapVFSError(err error) uint32 {
	switch {
	case err == nil:
		return ErrnoSuccess
	case contains(err, vfs.ErrNotExist):
		return ErrnoNoent
	case contains(err, vfs.ErrExist):
		return ErrnoExist
	case contains(err, vfs.ErrIsDir):
		return ErrnoIsdir
	case contains(err, vfs.ErrNotDir):
		return ErrnoNotdir
	case contains(err, vfs.ErrNotEmpty):
		return ErrnoNotempty
	default:
		return ErrnoIO
	}
}

func contains(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func (w *P1) pathFilestatGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fsys, full, errno := w.resolvePath(ctx, int32(exec.AsU32(args[0])), exec.AsU32(args[2]), exec.AsU32(args[3]))
	if errno != ErrnoSuccess {
		return errnoVal(errno), nil
	}
	info, err := fsys.Stat(full)
	if err != nil {
		return errnoVal(mapVFSError(err)), nil
	}
	if !writeFilestat(ctx.Memory, exec.AsU32(args[4]), info, w.now()) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) pathCreateDirectory(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fsys, full, errno := w.resolvePath(ctx, int32(exec.AsU32(args[0])), exec.AsU32(args[1]), exec.AsU32(args[2]))
	if errno != ErrnoSuccess {
		return errnoVal(errno), nil
	}
	if err := fsys.Mkdir(full); err != nil {
		return errnoVal(mapVFSError(err)), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) pathUnlinkFile(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fsys, full, errno := w.resolvePath(ctx, int32(exec.AsU32(args[0])), exec.AsU32(args[1]), exec.AsU32(args[2]))
	if errno != ErrnoSuccess {
		return errnoVal(errno), nil
	}
	if info, err := fsys.Stat(full); err == nil && info.IsDir {
		return errnoVal(ErrnoIsdir), nil
	}
	if err := fsys.Remove(full); err != nil {
		return errnoVal(mapVFSError(err)), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) pathRemoveDirectory(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fsys, full, errno := w.resolvePath(ctx, int32(exec.AsU32(args[0])), exec.AsU32(args[1]), exec.AsU32(args[2]))
	if errno != ErrnoSuccess {
		return errnoVal(errno), nil
	}
	if info, err := fsys.Stat(full); err == nil && !info.IsDir {
		return errnoVal(ErrnoNotdir), nil
	}
	if err := fsys.Remove(full); err != nil {
		return errnoVal(mapVFSError(err)), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

// fdReaddir serializes directory entries in WASI dirent format, resuming
// from the given cookie (entry index).
func (w *P1) fdReaddir(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	fd := int32(exec.AsU32(args[0]))
	ent, ok := w.fds[fd]
	if !ok {
		return errnoVal(ErrnoBadf), nil
	}
	if ent.kind != fdDir {
		return errnoVal(ErrnoNotdir), nil
	}
	entries, err := ent.fs.ReadDir(ent.dirPath)
	if err != nil {
		return errnoVal(mapVFSError(err)), nil
	}
	bufPtr := exec.AsU32(args[1])
	bufLen := exec.AsU32(args[2])
	cookie := exec.AsI64(args[3])

	var out []byte
	for i := int64(0); i < int64(len(entries)); i++ {
		if i < cookie {
			continue
		}
		e := entries[i]
		var dirent [24]byte
		binary.LittleEndian.PutUint64(dirent[0:], uint64(i+1)) // d_next cookie
		binary.LittleEndian.PutUint64(dirent[8:], uint64(hashName(e.Name)))
		binary.LittleEndian.PutUint32(dirent[16:], uint32(len(e.Name)))
		if e.IsDir {
			dirent[20] = filetypeDirectory
		} else {
			dirent[20] = filetypeRegularFile
		}
		out = append(out, dirent[:]...)
		out = append(out, e.Name...)
		if uint32(len(out)) >= bufLen {
			out = out[:bufLen] // truncated final entry signals "buffer full"
			break
		}
	}
	if !ctx.Memory.Write(bufPtr, out) {
		return errnoVal(ErrnoFault), nil
	}
	if !ctx.Memory.WriteUint32(exec.AsU32(args[4]), uint32(len(out))) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) randomGet(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	// Fill guest memory in place: WritableView marks the pages dirty and
	// avoids a per-call staging allocation.
	buf, ok := ctx.Memory.WritableView(exec.AsU32(args[0]), exec.AsU32(args[1]))
	if !ok {
		return errnoVal(ErrnoFault), nil
	}
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.cfg.RandSeed))
	}
	w.rng.Read(buf)
	w.obsRandBytes.Add(int64(len(buf)))
	return errnoVal(ErrnoSuccess), nil
}

// WASI subscription/event tags.
const (
	eventtypeClock   = 0
	eventtypeFdRead  = 1
	eventtypeFdWrite = 2
)

// pollOneoff implements the subset guests use for sleeps and readiness
// polling: clock subscriptions complete immediately (simulated time is
// driven by the discrete-event engine, so a guest "sleep" costs no wall
// time), and fd_read/fd_write subscriptions report ready. Each input
// subscription (48 bytes) produces one event (32 bytes).
func (w *P1) pollOneoff(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	in := exec.AsU32(args[0])
	out := exec.AsU32(args[1])
	nsubs := exec.AsU32(args[2])
	if nsubs == 0 {
		return errnoVal(ErrnoInval), nil
	}
	mem := ctx.Memory
	written := uint32(0)
	for i := uint32(0); i < nsubs; i++ {
		// View, not Read: the subscription bytes are decoded immediately, so
		// aliasing guest memory avoids a 48-byte allocation per subscription.
		sub, ok := mem.View(in+i*48, 48)
		if !ok {
			return errnoVal(ErrnoFault), nil
		}
		userdata := binary.LittleEndian.Uint64(sub[0:])
		tag := sub[8]
		var ev [32]byte
		binary.LittleEndian.PutUint64(ev[0:], userdata)
		binary.LittleEndian.PutUint16(ev[8:], uint16(ErrnoSuccess))
		ev[10] = tag
		if tag == eventtypeFdRead || tag == eventtypeFdWrite {
			// fd readiness: report one byte available.
			binary.LittleEndian.PutUint64(ev[16:], 1)
		}
		if !mem.Write(out+i*32, ev[:]) {
			return errnoVal(ErrnoFault), nil
		}
		written++
	}
	if !mem.WriteUint32(exec.AsU32(args[3]), written) {
		return errnoVal(ErrnoFault), nil
	}
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) schedYield(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	return errnoVal(ErrnoSuccess), nil
}

func (w *P1) procExit(ctx *exec.HostContext, args []exec.Value) ([]exec.Value, error) {
	w.Exited = true
	w.ExitCode = exec.AsU32(args[0])
	w.obsExits.Inc()
	return nil, &exec.ExitError{Code: w.ExitCode}
}

// RunResult captures the outcome of running a WASI command module.
type RunResult struct {
	ExitCode     uint32
	Instructions uint64
	MemoryPages  uint32
	// PrivatePages counts the linear-memory pages the run dirtied relative
	// to the module's shared baseline image (the post-instantiation
	// contents): the copy-on-write private cost of this execution.
	PrivatePages uint32
	BytesWritten int64
}

// Run instantiates a validated command module with this WASI instance and
// invokes its _start export. A clean return or proc_exit(0) yields exit
// code 0. Bodies are compiled on the spot; callers holding a shared
// precompiled artifact should use RunModule.
func (w *P1) Run(store *exec.Store, m *wasm.Module) (RunResult, error) {
	mc, err := exec.Precompile(m)
	if err != nil {
		return RunResult{}, err
	}
	return w.RunModule(store, mc)
}

// RunModule is Run for a precompiled (typically cache-shared) module: the
// instance gets fresh state but reuses the compiled bodies.
func (w *P1) RunModule(store *exec.Store, mc *exec.ModuleCode) (RunResult, error) {
	w.Register(store)
	before := store.InstructionCount()
	inst, err := store.InstantiateCompiled(mc, "")
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return w.result(store, inst, before, ee.Code), nil
		}
		return RunResult{}, err
	}
	// Share the post-instantiation memory as the module's baseline image:
	// _start then dirties only the pages it writes, and N containers of one
	// digest alias one copy of the clean pages (PrivatePages reports the
	// divergence).
	if m := inst.Memory(); m != nil {
		mc.EnsureBaseline(m)
	}
	_, err = inst.Call("_start")
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return w.result(store, inst, before, ee.Code), nil
		}
		return RunResult{}, err
	}
	return w.result(store, inst, before, 0), nil
}

func (w *P1) result(store *exec.Store, inst *exec.Instance, before uint64, code uint32) RunResult {
	res := RunResult{
		ExitCode:     code,
		Instructions: store.InstructionCount() - before,
		BytesWritten: w.BytesWritten,
	}
	if inst != nil && inst.Memory() != nil {
		res.MemoryPages = inst.Memory().Pages()
		res.PrivatePages = uint32(inst.Memory().DirtyPages())
	}
	return res
}
