package wasi

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/wasm/exec"
)

// writePathsWAT calls every WASI function that writes guest memory, each into
// its own spot of the single page, and exits with the OR of the errnos.
const writePathsWAT = `
(module
  (import "wasi_snapshot_preview1" "args_sizes_get" (func $asg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "args_get" (func $ag (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "environ_sizes_get" (func $esg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "environ_get" (func $eg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "clock_time_get" (func $ctg (param i32 i64 i32) (result i32)))
  (import "wasi_snapshot_preview1" "clock_res_get" (func $crg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_write" (func $fw (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_read" (func $fr (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_seek" (func $fs (param i32 i64 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_fdstat_get" (func $fsg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_prestat_get" (func $pg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_prestat_dir_name" (func $pdn (param i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_filestat_get" (func $ffg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_open" (func $po (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_readdir" (func $rd (param i32 i32 i32 i64 i32) (result i32)))
  (import "wasi_snapshot_preview1" "path_filestat_get" (func $pfg (param i32 i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "random_get" (func $rg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "poll_oneoff" (func $poll (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "proc_exit" (func $exit (param i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "hello.txt")
  ;; iovec for fd_write: the path string; iovec for fd_read: 16 bytes at 3072
  (data (i32.const 32) "\00\00\00\00\09\00\00\00")
  (data (i32.const 40) "\00\0c\00\00\10\00\00\00")
  (global $e (mut i32) (i32.const 0))
  (func $or (param i32) (global.set $e (i32.or (global.get $e) (local.get 0))))
  (func (export "_start")
    (call $or (call $asg (i32.const 1024) (i32.const 1028)))
    (call $or (call $ag (i32.const 1040) (i32.const 1100)))
    (call $or (call $esg (i32.const 1200) (i32.const 1204)))
    (call $or (call $eg (i32.const 1220) (i32.const 1300)))
    (call $or (call $ctg (i32.const 0) (i64.const 1) (i32.const 1400)))
    (call $or (call $crg (i32.const 0) (i32.const 1408)))
    (call $or (call $fw (i32.const 1) (i32.const 32) (i32.const 1) (i32.const 1416)))
    (call $or (call $fr (i32.const 0) (i32.const 40) (i32.const 1) (i32.const 1420)))
    (call $or (call $fsg (i32.const 3) (i32.const 1500)))
    (call $or (call $pg (i32.const 3) (i32.const 1600)))
    (call $or (call $pdn (i32.const 3) (i32.const 1700) (i32.const 64)))
    (call $or (call $ffg (i32.const 3) (i32.const 1800)))
    (call $or (call $pfg (i32.const 3) (i32.const 0) (i32.const 0) (i32.const 9) (i32.const 1900)))
    (call $or (call $po (i32.const 3) (i32.const 0) (i32.const 0) (i32.const 9) (i32.const 0) (i64.const -1) (i64.const -1) (i32.const 0) (i32.const 2000)))
    (call $or (call $fs (i32.load (i32.const 2000)) (i64.const 2) (i32.const 0) (i32.const 2008)))
    (call $or (call $rd (i32.const 3) (i32.const 2100) (i32.const 256) (i64.const 0) (i32.const 2400)))
    (call $or (call $rg (i32.const 2500) (i32.const 64)))
    (call $or (call $poll (i32.const 2600) (i32.const 2700) (i32.const 1) (i32.const 2800)))
    (call $exit (global.get $e))))
`

// TestWASIWritesNeverReachSharedImage runs a command that goes through every
// WASI write path, first as the instance that donates the module's baseline
// image and then from 8 goroutines as instances aliasing it (run with
// -race). A sibling instance that only ever reads — so it keeps aliasing the
// image's own bytes — must see exactly what a from-scratch instantiation
// yields, before and after.
func TestWASIWritesNeverReachSharedImage(t *testing.T) {
	m := compileWat(t, writePathsWAT)
	mc, err := exec.Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		fsys := vfs.New()
		fsys.MkdirAll("/root")
		fsys.WriteFile("/root/hello.txt", []byte("hello, wasi"))
		var out bytes.Buffer
		w := New(Config{
			Args:     []string{"prog", "arg"},
			Env:      []string{"K=V"},
			Stdin:    strings.NewReader("sixteen bytes in"),
			Stdout:   &out,
			Preopens: []Preopen{{GuestPath: "/root", FS: fsys, HostPath: "/root"}},
		})
		res, err := w.RunModule(exec.NewStore(exec.Config{}), mc)
		switch {
		case err != nil:
			t.Error(err)
		case res.ExitCode != 0:
			t.Errorf("errnos OR to %d, want 0", res.ExitCode)
		case res.PrivatePages != 1 || out.String() != "hello.txt":
			t.Errorf("private pages %d, stdout %q: the command did not write", res.PrivatePages, out.String())
		}
	}
	instantiate := func(mc *exec.ModuleCode) *exec.Memory {
		store := exec.NewStore(exec.Config{})
		New(Config{}).Register(store)
		inst, err := store.InstantiateCompiled(mc, "")
		if err != nil {
			t.Fatal(err)
		}
		return inst.Memory()
	}

	run() // donates the image, then dirties its own copy
	fresh, err := exec.Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	want := instantiate(fresh).Bytes()
	sibling := instantiate(mc)
	if sibling.Baseline() == nil {
		t.Fatal("sibling was not instantiated on the published image")
	}
	if !bytes.Equal(sibling.Bytes(), want) {
		t.Fatal("the donating run's writes are in the shared image")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				run()
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(sibling.Bytes(), want) || sibling.DirtyPages() != 0 {
		t.Fatal("an aliasing run's writes reached the shared image")
	}
}
