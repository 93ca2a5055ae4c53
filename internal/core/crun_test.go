package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/oci"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/workloads"
)

func testNode() *simos.Node {
	return simos.NewNode(simos.NodeConfig{
		Name: "t", RAMBytes: 16 * simos.GiB, Cores: 4,
		BaseSystemBytes: 256 * simos.MiB,
	})
}

// wasmBundle builds a bundle for the named workload with annotations.
func wasmBundle(t *testing.T, workload, cgroup string) *oci.Bundle {
	t.Helper()
	bin, err := workloads.Binary(workload)
	if err != nil {
		t.Fatal(err)
	}
	rootfs := vfs.New()
	if err := rootfs.WriteFile("/app.wasm", bin); err != nil {
		t.Fatal(err)
	}
	rootfs.MkdirAll("/data")
	spec := &oci.Spec{
		Version:     oci.SpecVersion,
		Process:     oci.Process{Args: []string{"/app.wasm"}, Env: []string{"SVC=test"}, Cwd: "/"},
		Root:        oci.Root{Path: "rootfs"},
		Annotations: map[string]string{oci.WasmVariantAnnotation: "compat"},
		Linux:       &oci.Linux{CgroupsPath: cgroup, Namespaces: oci.DefaultNamespaces()},
	}
	b, err := oci.NewBundle("/bundles/"+workload, spec, rootfs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func pythonBundle(t *testing.T, script, cgroup string) *oci.Bundle {
	t.Helper()
	rootfs := vfs.New()
	rootfs.MkdirAll("/app")
	if err := rootfs.WriteFile("/app/app.py", []byte(script)); err != nil {
		t.Fatal(err)
	}
	spec := &oci.Spec{
		Version: oci.SpecVersion,
		Process: oci.Process{Args: []string{"python3", "/app/app.py"}, Cwd: "/"},
		Root:    oci.Root{Path: "rootfs"},
		Linux:   &oci.Linux{CgroupsPath: cgroup, Namespaces: oci.DefaultNamespaces()},
	}
	b, err := oci.NewBundle("/bundles/py", spec, rootfs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCrunWasmLifecycle(t *testing.T) {
	node := testNode()
	crun := New(Config{Node: node})
	b := wasmBundle(t, "minimal-service", "/pods/p1/app")
	if err := crun.Create("c1", b); err != nil {
		t.Fatal(err)
	}
	st, err := crun.State("c1")
	if err != nil || st.Status != oci.StatusCreated {
		t.Fatalf("state after create: %+v, %v", st, err)
	}
	report, err := crun.Start("c1")
	if err != nil {
		t.Fatal(err)
	}
	if report.Stdout != "service ready\n" || report.ExitCode != 0 {
		t.Fatalf("report = %+v", report)
	}
	if report.Handler != "wasm:wamr" {
		t.Fatalf("handler = %q", report.Handler)
	}
	if report.Cost.CPUWork <= 0 || report.Instructions == 0 {
		t.Fatalf("cost/telemetry missing: %+v", report)
	}
	st, _ = crun.State("c1")
	if st.Status != oci.StatusRunning || st.Pid == 0 {
		t.Fatalf("state after start: %+v", st)
	}
	// Memory is charged to the pod cgroup.
	cg, ok := node.Cgroup("/pods/p1")
	if !ok || cg.MemoryCurrent() <= 0 {
		t.Fatal("no memory charged to pod cgroup")
	}
	// Double start fails.
	if _, err := crun.Start("c1"); !errors.Is(err, oci.ErrBadState) {
		t.Fatalf("double start: %v", err)
	}
	// Kill then delete.
	if err := crun.Delete("c1"); !errors.Is(err, oci.ErrBadState) {
		t.Fatalf("delete running: %v", err)
	}
	if err := crun.Kill("c1", 9); err != nil {
		t.Fatal(err)
	}
	if cg.MemoryCurrent() != 0 {
		t.Fatalf("memory leaked after kill: %d", cg.MemoryCurrent())
	}
	if err := crun.Delete("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := crun.State("c1"); !errors.Is(err, oci.ErrNotFound) {
		t.Fatalf("state after delete: %v", err)
	}
}

func TestCrunWASIArgumentForwarding(t *testing.T) {
	// Integration aspect 2: OCI process args/env reach the module via WASI.
	node := testNode()
	crun := New(Config{Node: node})
	b := wasmBundle(t, "echo-args", "/pods/echo/app")
	b.Spec.Process.Args = []string{"/app.wasm", "--listen", ":9000"}
	if err := crun.Create("echo", b); err != nil {
		t.Fatal(err)
	}
	report, err := crun.Start("echo")
	if err != nil {
		t.Fatal(err)
	}
	want := "/app.wasm\n--listen\n:9000\n"
	if report.Stdout != want {
		t.Fatalf("stdout = %q, want %q", report.Stdout, want)
	}
}

func TestCrunPreopenedDirectories(t *testing.T) {
	// Integration aspect 2 (cont.): mounts become preopened dirs; the
	// file-io workload persists a file into the bundle rootfs.
	node := testNode()
	crun := New(Config{Node: node})
	b := wasmBundle(t, "file-io", "/pods/io/app")
	if err := crun.Create("io", b); err != nil {
		t.Fatal(err)
	}
	report, err := crun.Start("io")
	if err != nil {
		t.Fatal(err)
	}
	if report.Stdout != "ok\n" {
		t.Fatalf("stdout = %q", report.Stdout)
	}
	data, err := b.Rootfs.ReadFile("/state.bin")
	if err != nil || string(data) != "persisted-payload" {
		t.Fatalf("guest file: %q, %v", data, err)
	}
}

func TestCrunEngineSelection(t *testing.T) {
	// The same crun code embeds all four engines; footprints differ.
	footprints := map[string]int64{}
	for _, prof := range engine.Profiles() {
		node := testNode()
		crun := New(Config{Node: node, Engine: prof})
		b := wasmBundle(t, "minimal-service", "/pods/x/app")
		if err := crun.Create("c", b); err != nil {
			t.Fatal(err)
		}
		if _, err := crun.Start("c"); err != nil {
			t.Fatal(err)
		}
		cg, _ := node.Cgroup("/pods/x")
		footprints[prof.Name] = cg.MemoryCurrent()
	}
	if !(footprints["wamr"] < footprints["wasmedge"] &&
		footprints["wasmedge"] < footprints["wasmtime"] &&
		footprints["wasmtime"] < footprints["wasmer"]) {
		t.Fatalf("footprint ordering wrong: %v", footprints)
	}
}

func TestCrunDynamicVsStaticLinking(t *testing.T) {
	// Integration aspect 1: dynamic loading shares the engine library.
	run := func(static bool, n int) int64 {
		node := testNode()
		crun := New(Config{Node: node, StaticEngineLinking: static})
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("c%d", i)
			b := wasmBundle(t, "minimal-service", "/pods/"+id+"/app")
			if err := crun.Create(id, b); err != nil {
				t.Fatal(err)
			}
			if _, err := crun.Start(id); err != nil {
				t.Fatal(err)
			}
		}
		return node.UsedBeyondIdle()
	}
	const n = 8
	dyn := run(false, n)
	static := run(true, n)
	libBytes := engine.WAMR.SharedLibBytes
	// Static pays the library n times; dynamic pays once.
	wantDelta := libBytes * int64(n-1)
	delta := static - dyn
	if delta < wantDelta-int64(n)*simos.PageSize || delta > wantDelta+int64(n)*simos.PageSize {
		t.Fatalf("static-dynamic delta = %d, want ~%d", delta, wantDelta)
	}
}

func TestCrunPythonHandler(t *testing.T) {
	node := testNode()
	crun := New(Config{Node: node})
	b := pythonBundle(t, "print('py in crun')", "/pods/py/app")
	if err := crun.Create("py", b); err != nil {
		t.Fatal(err)
	}
	report, err := crun.Start("py")
	if err != nil {
		t.Fatal(err)
	}
	if report.Stdout != "py in crun\n" || report.Handler != "native:pylite" {
		t.Fatalf("report = %+v", report)
	}
}

func TestCrunPythonGuestErrorIsExitCode(t *testing.T) {
	node := testNode()
	crun := New(Config{Node: node})
	b := pythonBundle(t, "x = 1 / 0", "/pods/err/app")
	if err := crun.Create("err", b); err != nil {
		t.Fatal(err)
	}
	report, err := crun.Start("err")
	if err != nil {
		t.Fatal(err)
	}
	if report.ExitCode != 1 {
		t.Fatalf("exit = %d, want 1", report.ExitCode)
	}
	if !strings.Contains(report.Stdout, "division by zero") {
		t.Fatalf("stdout = %q", report.Stdout)
	}
}

func TestCrunMissingModule(t *testing.T) {
	node := testNode()
	crun := New(Config{Node: node})
	b := wasmBundle(t, "minimal-service", "/pods/m/app")
	b.Spec.Process.Args = []string{"/nonexistent.wasm"}
	if err := crun.Create("m", b); err != nil {
		t.Fatal(err)
	}
	if _, err := crun.Start("m"); err == nil {
		t.Fatal("start with missing module succeeded")
	}
}

func TestCrunRejectsNonPythonNative(t *testing.T) {
	node := testNode()
	crun := New(Config{Node: node})
	rootfs := vfs.New()
	spec := &oci.Spec{
		Version: oci.SpecVersion,
		Process: oci.Process{Args: []string{"/bin/sh"}},
		Root:    oci.Root{Path: "rootfs"},
		Linux:   &oci.Linux{CgroupsPath: "/pods/sh/app"},
	}
	b, err := oci.NewBundle("/b", spec, rootfs)
	if err != nil {
		t.Fatal(err)
	}
	if err := crun.Create("sh", b); err != nil {
		t.Fatal(err)
	}
	if _, err := crun.Start("sh"); !errors.Is(err, oci.ErrNoHandler) {
		t.Fatalf("expected ErrNoHandler, got %v", err)
	}
}

func TestCrunStartCostComposition(t *testing.T) {
	// The WAMR path's cost = crun create + engine start (+ real exec time).
	node := testNode()
	crun := New(Config{Node: node})
	b := wasmBundle(t, "minimal-service", "/pods/c/app")
	crun.Create("c", b)
	report, err := crun.Start("c")
	if err != nil {
		t.Fatal(err)
	}
	minCPU := DefaultCreateCPUWork + engine.WAMR.EmbedCPUWork
	if report.Cost.CPUWork < minCPU {
		t.Fatalf("CPU work %v below composed minimum %v", report.Cost.CPUWork, minCPU)
	}
	if report.Cost.FixedDelay != engine.WAMR.EmbedFixedDelay {
		t.Fatalf("fixed delay %v", report.Cost.FixedDelay)
	}
}
