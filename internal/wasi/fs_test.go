package wasi

import (
	"strings"
	"testing"

	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/wasm/exec"
)

// fsHarness instantiates a module exercising the filesystem surface of
// WASI: prestat discovery, stat calls, directory create/remove, unlink.
const fsHarnessWAT = `
(module
  (import "wasi_snapshot_preview1" "fd_prestat_get" (func $pg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_prestat_dir_name" (func $pdn (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_fdstat_get" (func $fsg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_filestat_get" (func $ffg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_filestat_get" (func $pfg (param i32 i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_create_directory" (func $pcd (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_remove_directory" (func $prd (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_unlink_file" (func $puf (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "clock_res_get" (func $crg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "sched_yield" (func $sy (result i32)))
  (import "wasi_snapshot_preview1" "fd_fdstat_set_flags" (func $fsf (param i32 i32) (result i32)))
  (memory (export "memory") 1)
  ;; path strings
  (data (i32.const 0) "newdir")
  (data (i32.const 16) "hello.txt")
  ;; globals capture each errno
  (global $e_prestat (export "e_prestat") (mut i32) (i32.const -1))
  (global $e_dirname (export "e_dirname") (mut i32) (i32.const -1))
  (global $e_fdstat (export "e_fdstat") (mut i32) (i32.const -1))
  (global $e_filestat (export "e_filestat") (mut i32) (i32.const -1))
  (global $e_pathstat (export "e_pathstat") (mut i32) (i32.const -1))
  (global $e_mkdir (export "e_mkdir") (mut i32) (i32.const -1))
  (global $e_rmdir (export "e_rmdir") (mut i32) (i32.const -1))
  (global $e_unlink (export "e_unlink") (mut i32) (i32.const -1))
  (global $e_misc (export "e_misc") (mut i32) (i32.const -1))
  (func (export "_start")
    (global.set $e_prestat (call $pg (i32.const 3) (i32.const 256)))
    (global.set $e_dirname (call $pdn (i32.const 3) (i32.const 300) (i32.const 64)))
    (global.set $e_fdstat (call $fsg (i32.const 3) (i32.const 400)))
    (global.set $e_filestat (call $ffg (i32.const 3) (i32.const 500)))
    ;; stat the existing file hello.txt
    (global.set $e_pathstat (call $pfg (i32.const 3) (i32.const 0) (i32.const 16) (i32.const 9) (i32.const 600)))
    (global.set $e_mkdir (call $pcd (i32.const 3) (i32.const 0) (i32.const 6)))
    (global.set $e_rmdir (call $prd (i32.const 3) (i32.const 0) (i32.const 6)))
    (global.set $e_unlink (call $puf (i32.const 3) (i32.const 16) (i32.const 9)))
    (call $crg (i32.const 0) (i32.const 700))
    drop
    (call $sy)
    drop
    (global.set $e_misc (call $fsf (i32.const 3) (i32.const 0)))))
`

func TestFilesystemSurface(t *testing.T) {
	fsys := vfs.New()
	fsys.MkdirAll("/root")
	fsys.WriteFile("/root/hello.txt", []byte("hello, wasi"))
	m := compileWat(t, fsHarnessWAT)
	w := New(Config{Preopens: []Preopen{{GuestPath: "/root", FS: fsys, HostPath: "/root"}}})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"e_prestat", "e_dirname", "e_fdstat", "e_filestat", "e_pathstat", "e_mkdir", "e_rmdir", "e_unlink", "e_misc"} {
		if v := exec.AsU32(inst.GlobalByName(g).Get()); v != ErrnoSuccess {
			t.Errorf("%s = %d, want success", g, v)
		}
	}
	mem := inst.Memory()
	// prestat: tag 0 (dir) + name_len of "/root".
	if tag, _ := mem.Read(256, 1); tag[0] != 0 {
		t.Fatalf("prestat tag = %d", tag[0])
	}
	if n, _ := mem.ReadUint32(260); n != uint32(len("/root")) {
		t.Fatalf("prestat name_len = %d", n)
	}
	if name, _ := mem.ReadString(300, uint32(len("/root"))); name != "/root" {
		t.Fatalf("prestat dir name = %q", name)
	}
	// fdstat of fd 3: filetype directory.
	if ft, _ := mem.Read(400, 1); ft[0] != filetypeDirectory {
		t.Fatalf("fdstat filetype = %d", ft[0])
	}
	// path_filestat of hello.txt: regular file, size 11.
	if ft, _ := mem.Read(600+16, 1); ft[0] != filetypeRegularFile {
		t.Fatalf("filestat filetype = %d", ft[0])
	}
	if size, _ := mem.ReadUint64(600 + 32); size != 11 {
		t.Fatalf("filestat size = %d", size)
	}
	// clock_res_get wrote a nonzero resolution.
	if res, _ := mem.ReadUint64(700); res == 0 {
		t.Fatal("clock resolution = 0")
	}
	// The mkdir+rmdir round-tripped: newdir is gone; unlink removed the file.
	if _, err := fsys.Stat("/root/newdir"); err == nil {
		t.Fatal("newdir still exists")
	}
	if _, err := fsys.Stat("/root/hello.txt"); err == nil {
		t.Fatal("hello.txt still exists")
	}
}

func TestPathErrnos(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "path_filestat_get" (func $pfg (param i32 i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_unlink_file" (func $puf (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_remove_directory" (func $prd (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_create_directory" (func $pcd (param i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "missing")
  (data (i32.const 16) "adir")
  (data (i32.const 32) "afile")
  (global $e_stat (export "e_stat") (mut i32) (i32.const -1))
  (global $e_unlinkdir (export "e_unlinkdir") (mut i32) (i32.const -1))
  (global $e_rmfile (export "e_rmfile") (mut i32) (i32.const -1))
  (global $e_mkdirdup (export "e_mkdirdup") (mut i32) (i32.const -1))
  (func (export "_start")
    (global.set $e_stat (call $pfg (i32.const 3) (i32.const 0) (i32.const 0) (i32.const 7) (i32.const 512)))
    (global.set $e_unlinkdir (call $puf (i32.const 3) (i32.const 16) (i32.const 4)))
    (global.set $e_rmfile (call $prd (i32.const 3) (i32.const 32) (i32.const 5)))
    (global.set $e_mkdirdup (call $pcd (i32.const 3) (i32.const 16) (i32.const 4)))))
`
	fsys := vfs.New()
	fsys.MkdirAll("/r/adir")
	fsys.WriteFile("/r/afile", []byte("x"))
	m := compileWat(t, src)
	w := New(Config{Preopens: []Preopen{{GuestPath: "/r", FS: fsys, HostPath: "/r"}}})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	check := func(g string, want uint32) {
		if v := exec.AsU32(inst.GlobalByName(g).Get()); v != want {
			t.Errorf("%s = %d, want %d", g, v, want)
		}
	}
	check("e_stat", ErrnoNoent)
	check("e_unlinkdir", ErrnoIsdir)
	check("e_rmfile", ErrnoNotdir)
	check("e_mkdirdup", ErrnoExist)
}

func TestWriteToStderrAndDiscard(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "fd_write" (func $fw (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 16) "err!")
  (func (export "_start")
    (i32.store (i32.const 0) (i32.const 16))
    (i32.store (i32.const 4) (i32.const 4))
    ;; fd 2 = stderr, fd 1 = stdout (both nil here: discarded)
    (call $fw (i32.const 2) (i32.const 0) (i32.const 1) (i32.const 8)) drop
    (call $fw (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 8)) drop))
`
	m := compileWat(t, src)
	w := New(Config{}) // nil stdout/stderr: writes succeed and are discarded
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten != 8 {
		t.Fatalf("BytesWritten = %d, want 8", w.BytesWritten)
	}
}

func TestStdinRead(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "fd_read" (func $fr (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (func (export "_start")
    (i32.store (i32.const 0) (i32.const 64))
    (i32.store (i32.const 4) (i32.const 16))
    (call $fr (i32.const 0) (i32.const 0) (i32.const 1) (i32.const 8)) drop))
`
	m := compileWat(t, src)
	w := New(Config{Stdin: strings.NewReader("piped-input")})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	n, _ := inst.Memory().ReadUint32(8)
	if n != uint32(len("piped-input")) {
		t.Fatalf("nread = %d", n)
	}
	got, _ := inst.Memory().ReadString(64, n)
	if got != "piped-input" {
		t.Fatalf("stdin read %q", got)
	}
}
