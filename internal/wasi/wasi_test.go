package wasi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/wat"
	"wasmcontainers/internal/workloads"
)

func runWorkload(t *testing.T, name string, cfg Config) (RunResult, *P1) {
	t.Helper()
	m, err := workloads.Module(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	w := New(cfg)
	store := exec.NewStore(exec.Config{})
	res, err := w.Run(store, m)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res, w
}

func TestMinimalServicePrintsBanner(t *testing.T) {
	var out bytes.Buffer
	res, _ := runWorkload(t, "minimal-service", Config{Stdout: &out})
	if res.ExitCode != 0 {
		t.Fatalf("exit code = %d", res.ExitCode)
	}
	if out.String() != "service ready\n" {
		t.Fatalf("stdout = %q", out.String())
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions counted")
	}
	if res.MemoryPages != 1 {
		t.Fatalf("memory pages = %d, want 1", res.MemoryPages)
	}
}

func TestEchoArgs(t *testing.T) {
	var out bytes.Buffer
	res, _ := runWorkload(t, "echo-args", Config{
		Args:   []string{"svc", "--listen", ":8080"},
		Stdout: &out,
	})
	if res.ExitCode != 0 {
		t.Fatalf("exit code = %d", res.ExitCode)
	}
	want := "svc\n--listen\n:8080\n"
	if out.String() != want {
		t.Fatalf("stdout = %q, want %q", out.String(), want)
	}
}

func TestFileIOThroughPreopen(t *testing.T) {
	fsys := vfs.New()
	if err := fsys.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, _ := runWorkload(t, "file-io", Config{
		Stdout:   &out,
		Preopens: []Preopen{{GuestPath: "/data", FS: fsys, HostPath: "/data"}},
	})
	if res.ExitCode != 0 {
		t.Fatalf("exit code = %d", res.ExitCode)
	}
	if out.String() != "ok\n" {
		t.Fatalf("stdout = %q", out.String())
	}
	data, err := fsys.ReadFile("/data/state.bin")
	if err != nil {
		t.Fatalf("file not created: %v", err)
	}
	if string(data) != "persisted-payload" {
		t.Fatalf("file contents = %q", data)
	}
}

func TestEnvironAndClock(t *testing.T) {
	// A handwritten module is overkill here; drive the host functions
	// directly through a tiny harness module instead.
	src := `
(module
  (import "wasi_snapshot_preview1" "environ_sizes_get" (func $es (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "environ_get" (func $eg (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "clock_time_get" (func $ct (param i32 i64 i32) (result i32)))
  (memory (export "memory") 1)
  (func (export "_start")
    (call $es (i32.const 0) (i32.const 4)) drop
    (call $eg (i32.const 8) (i32.const 64)) drop
    (call $ct (i32.const 0) (i64.const 0) (i32.const 256)) drop))
`
	m := compileWat(t, src)
	w := New(Config{
		Env: []string{"PATH=/bin", "MODE=test"},
		Now: func() uint64 { return 42_000_000_000 },
	})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	mem := inst.Memory()
	if c, _ := mem.ReadUint32(0); c != 2 {
		t.Fatalf("environ count = %d, want 2", c)
	}
	if sz, _ := mem.ReadUint32(4); sz != uint32(len("PATH=/bin")+1+len("MODE=test")+1) {
		t.Fatalf("environ buf size = %d", sz)
	}
	// First env string.
	p0, _ := mem.ReadUint32(8)
	s, _ := mem.ReadString(p0, uint32(len("PATH=/bin")))
	if s != "PATH=/bin" {
		t.Fatalf("env[0] = %q", s)
	}
	if ts, _ := mem.ReadUint64(256); ts != 42_000_000_000 {
		t.Fatalf("clock = %d", ts)
	}
}

func TestRandomGetDeterministic(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "random_get" (func $rg (param i32 i32) (result i32)))
  (memory (export "memory") 1)
  (func (export "_start")
    (call $rg (i32.const 0) (i32.const 32)) drop))
`
	m := compileWat(t, src)
	get := func(seed int64) []byte {
		w := New(Config{RandSeed: seed})
		store := exec.NewStore(exec.Config{})
		w.Register(store)
		inst, err := store.Instantiate(m, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("_start"); err != nil {
			t.Fatal(err)
		}
		b, _ := inst.Memory().Read(0, 32)
		return b
	}
	a, b := get(7), get(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different bytes")
	}
	// Pinned: the source is seeded by the first random_get, and must hand a
	// guest the bytes it got when New seeded it.
	seed7 := []byte{
		0xf3, 0xff, 0x4d, 0x45, 0x1e, 0x42, 0x9e, 0x18, 0x22, 0x15, 0xaa, 0xee, 0x06, 0xa2, 0xd6, 0x4b,
		0x6d, 0x1a, 0xad, 0xc9, 0xe5, 0x03, 0x1e, 0x4b, 0x99, 0xbf, 0x11, 0xae, 0x0a, 0x79, 0x6e, 0xbc,
	}
	if !bytes.Equal(a, seed7) {
		t.Fatalf("RandSeed 7 yields % x, want % x", a, seed7)
	}
	c := get(8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical bytes")
	}
}

// Host functions are bound when an import names them; a name the surface
// does not have must still fail the link, with the message it always had.
func TestUnknownWASIImportFailsInstantiation(t *testing.T) {
	m := compileWat(t, `
(module
  (import "wasi_snapshot_preview1" "fd_write" (func $fw (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "sock_accept" (func $sa (param i32 i32 i32) (result i32)))
  (memory 1)
  (func (export "_start")))
`)
	store := exec.NewStore(exec.Config{})
	New(Config{}).Register(store)
	_, err := store.Instantiate(m, "")
	if !errors.Is(err, exec.ErrUnknownImport) || err.Error() != "exec: unknown import: wasi_snapshot_preview1.sock_accept" {
		t.Fatalf("Instantiate = %v, want ErrUnknownImport naming sock_accept", err)
	}
}

// The one-shot container path builds a WASI process per pod: New + Register
// + instantiate of minimal-service cost 139 allocations when Register built
// all 25 host functions and New seeded the random source, and 29 with the two
// the guest imports built and no entropy drawn. With the instance and its
// memory inside the store and the function index space in one block it is
// 18, the ceiling.
func TestNewRegisterInstantiateAllocs(t *testing.T) {
	m, err := workloads.Module("minimal-service")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := exec.Precompile(m)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		store := exec.NewStore(exec.Config{})
		New(Config{RandSeed: 7}).Register(store)
		if _, err := store.InstantiateCompiled(mc, ""); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 18 {
		t.Fatalf("New+Register+instantiate(minimal-service) = %.0f allocs, want at most 18", allocs)
	}
	t.Logf("New+Register+instantiate(minimal-service): %.0f allocs", allocs)
}

func TestProcExitCode(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "proc_exit" (func $pe (param i32)))
  (memory 1)
  (func (export "_start")
    (call $pe (i32.const 3))))
`
	m := compileWat(t, src)
	w := New(Config{})
	store := exec.NewStore(exec.Config{})
	res, err := w.Run(store, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 3 {
		t.Fatalf("exit code = %d, want 3", res.ExitCode)
	}
	if !w.Exited {
		t.Fatal("Exited not set")
	}
}

func TestBadFDErrno(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "fd_write" (func $fw (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (global $errno (export "errno") (mut i32) (i32.const 0))
  (func (export "_start")
    (global.set $errno
      (call $fw (i32.const 99) (i32.const 0) (i32.const 0) (i32.const 8)))))
`
	m := compileWat(t, src)
	w := New(Config{})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if g := inst.GlobalByName("errno"); exec.AsU32(g.Get()) != ErrnoBadf {
		t.Fatalf("errno = %d, want EBADF(%d)", exec.AsU32(g.Get()), ErrnoBadf)
	}
}

func TestCPUWorkload(t *testing.T) {
	m, err := workloads.Module("cpu-bound")
	if err != nil {
		t.Fatal(err)
	}
	store := exec.NewStore(exec.Config{})
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("count_primes", exec.I32(100))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res[0]); got != 25 {
		t.Fatalf("primes below 100 = %d, want 25", got)
	}
}

func TestMemoryWorkload(t *testing.T) {
	m, err := workloads.Module("memory-bound")
	if err != nil {
		t.Fatal(err)
	}
	store := exec.NewStore(exec.Config{})
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("grow_touch", exec.I32(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.AsI32(res[0]); got != 4 {
		t.Fatalf("pages after grow = %d, want 4", got)
	}
	if got := inst.Memory().Pages(); got != 4 {
		t.Fatalf("memory pages = %d, want 4", got)
	}
}

func compileWat(t *testing.T, src string) *wasm.Module {
	t.Helper()
	m, err := wat.Compile(src)
	if err != nil {
		t.Fatalf("wat: %v", err)
	}
	return m
}

func TestAllWorkloadsCompile(t *testing.T) {
	for _, name := range workloads.Names() {
		if _, err := workloads.Module(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		bin, err := workloads.Binary(name)
		if err != nil || len(bin) < 8 {
			t.Errorf("%s: binary: %v (%d bytes)", name, err, len(bin))
		}
	}
	if !strings.Contains(strings.Join(workloads.Names(), ","), "minimal-service") {
		t.Error("minimal-service missing from Names")
	}
}

func TestFdReaddir(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "fd_readdir" (func $rd (param i32 i32 i32 i64 i32) (result i32)))
  (memory (export "memory") 1)
  (global $errno (export "errno") (mut i32) (i32.const 0))
  (func (export "_start")
    (global.set $errno
      (call $rd (i32.const 3) (i32.const 1024) (i32.const 4096) (i64.const 0) (i32.const 0)))))
`
	m := compileWat(t, src)
	fsys := vfs.New()
	fsys.MkdirAll("/work")
	fsys.WriteFile("/work/beta.txt", []byte("b"))
	fsys.WriteFile("/work/alpha.txt", []byte("a"))
	fsys.MkdirAll("/work/subdir")
	w := New(Config{Preopens: []Preopen{{GuestPath: "/work", FS: fsys, HostPath: "/work"}}})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if g := inst.GlobalByName("errno"); exec.AsU32(g.Get()) != ErrnoSuccess {
		t.Fatalf("errno = %d", exec.AsU32(g.Get()))
	}
	used, _ := inst.Memory().ReadUint32(0)
	if used == 0 {
		t.Fatal("no dirent bytes written")
	}
	buf, _ := inst.Memory().Read(1024, used)
	// Parse the dirent stream: expect alpha.txt, beta.txt, subdir in order.
	var names []string
	var types []byte
	for off := 0; off+24 <= len(buf); {
		namlen := int(binary.LittleEndian.Uint32(buf[off+16:]))
		types = append(types, buf[off+20])
		start := off + 24
		if start+namlen > len(buf) {
			break
		}
		names = append(names, string(buf[start:start+namlen]))
		off = start + namlen
	}
	want := []string{"alpha.txt", "beta.txt", "subdir"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if types[2] != filetypeDirectory || types[0] != filetypeRegularFile {
		t.Fatalf("types = %v", types)
	}
}

func TestFdReaddirCookieResume(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "fd_readdir" (func $rd (param i32 i32 i32 i64 i32) (result i32)))
  (memory (export "memory") 1)
  (func (export "_start")
    ;; resume from cookie 1: skip the first entry
    (call $rd (i32.const 3) (i32.const 1024) (i32.const 4096) (i64.const 1) (i32.const 0))
    drop))
`
	m := compileWat(t, src)
	fsys := vfs.New()
	fsys.MkdirAll("/d")
	fsys.WriteFile("/d/a", nil)
	fsys.WriteFile("/d/b", nil)
	w := New(Config{Preopens: []Preopen{{GuestPath: "/d", FS: fsys, HostPath: "/d"}}})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, _ := store.Instantiate(m, "")
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	used, _ := inst.Memory().ReadUint32(0)
	buf, _ := inst.Memory().Read(1024, used)
	namlen := int(binary.LittleEndian.Uint32(buf[16:]))
	name := string(buf[24 : 24+namlen])
	if name != "b" {
		t.Fatalf("resumed entry = %q, want b", name)
	}
}

func TestFdReaddirErrors(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "fd_readdir" (func $rd (param i32 i32 i32 i64 i32) (result i32)))
  (memory (export "memory") 1)
  (global $e1 (export "e1") (mut i32) (i32.const 0))
  (global $e2 (export "e2") (mut i32) (i32.const 0))
  (func (export "_start")
    (global.set $e1 (call $rd (i32.const 99) (i32.const 0) (i32.const 64) (i64.const 0) (i32.const 128)))
    (global.set $e2 (call $rd (i32.const 0) (i32.const 0) (i32.const 64) (i64.const 0) (i32.const 128)))))
`
	m := compileWat(t, src)
	w := New(Config{})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, _ := store.Instantiate(m, "")
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if e := exec.AsU32(inst.GlobalByName("e1").Get()); e != ErrnoBadf {
		t.Fatalf("bad fd errno = %d", e)
	}
	if e := exec.AsU32(inst.GlobalByName("e2").Get()); e != ErrnoNotdir {
		t.Fatalf("stdin readdir errno = %d", e)
	}
}

func TestPollOneoffClockAndFd(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "poll_oneoff" (func $po (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (global $errno (export "errno") (mut i32) (i32.const -1))
  (func (export "_start")
    ;; subscription 0 at 0: userdata=7, tag=clock(0)
    (i64.store (i32.const 0) (i64.const 7))
    (i32.store8 (i32.const 8) (i32.const 0))
    ;; subscription 1 at 48: userdata=9, tag=fd_read(1)
    (i64.store (i32.const 48) (i64.const 9))
    (i32.store8 (i32.const 56) (i32.const 1))
    (global.set $errno
      (call $po (i32.const 0) (i32.const 512) (i32.const 2) (i32.const 1024)))))
`
	m := compileWat(t, src)
	w := New(Config{})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, err := store.Instantiate(m, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if e := exec.AsU32(inst.GlobalByName("errno").Get()); e != ErrnoSuccess {
		t.Fatalf("errno = %d", e)
	}
	mem := inst.Memory()
	n, _ := mem.ReadUint32(1024)
	if n != 2 {
		t.Fatalf("nevents = %d", n)
	}
	// Event 0: userdata 7, errno success, type clock.
	u0, _ := mem.ReadUint64(512)
	if u0 != 7 {
		t.Fatalf("event0 userdata = %d", u0)
	}
	ev0, _ := mem.Read(512, 32)
	if ev0[10] != eventtypeClock {
		t.Fatalf("event0 type = %d", ev0[10])
	}
	// Event 1: userdata 9, type fd_read, nbytes 1.
	u1, _ := mem.ReadUint64(512 + 32)
	if u1 != 9 {
		t.Fatalf("event1 userdata = %d", u1)
	}
	ev1, _ := mem.Read(512+32, 32)
	if ev1[10] != eventtypeFdRead {
		t.Fatalf("event1 type = %d", ev1[10])
	}
	if nb, _ := mem.ReadUint64(512 + 32 + 16); nb != 1 {
		t.Fatalf("event1 nbytes = %d", nb)
	}
}

func TestPollOneoffZeroSubsIsEINVAL(t *testing.T) {
	src := `
(module
  (import "wasi_snapshot_preview1" "poll_oneoff" (func $po (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (global $errno (export "errno") (mut i32) (i32.const -1))
  (func (export "_start")
    (global.set $errno (call $po (i32.const 0) (i32.const 0) (i32.const 0) (i32.const 0)))))
`
	m := compileWat(t, src)
	w := New(Config{})
	store := exec.NewStore(exec.Config{})
	w.Register(store)
	inst, _ := store.Instantiate(m, "")
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if e := exec.AsU32(inst.GlobalByName("errno").Get()); e != ErrnoInval {
		t.Fatalf("errno = %d, want EINVAL", e)
	}
}
