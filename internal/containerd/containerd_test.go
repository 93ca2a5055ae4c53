package containerd

import (
	"fmt"
	"strings"
	"testing"

	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/vfs"
)

func testNode() *simos.Node {
	return simos.NewNode(simos.NodeConfig{
		Name: "t", RAMBytes: 32 * simos.GiB, Cores: 8,
		BaseSystemBytes: 512 * simos.MiB,
	})
}

func testClient(t *testing.T) *Client {
	t.Helper()
	images, err := NewImageStore()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(testNode(), images)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestImageStoreContents(t *testing.T) {
	images, err := NewImageStore()
	if err != nil {
		t.Fatal(err)
	}
	names := images.List()
	wantSome := []string{"minimal-service:wasm", "python-minimal-service:3.11", "file-io:wasm"}
	joined := strings.Join(names, ",")
	for _, w := range wantSome {
		if !strings.Contains(joined, w) {
			t.Errorf("missing image %s in %v", w, names)
		}
	}
	img, first, err := images.Pull("minimal-service:wasm")
	if err != nil || !first {
		t.Fatalf("first pull: %v first=%v", err, first)
	}
	if !img.Wasm || img.SizeBytes <= 0 {
		t.Fatalf("image meta: %+v", img)
	}
	if _, err := img.Rootfs.Stat("/app.wasm"); err != nil {
		t.Fatal("module missing from image rootfs")
	}
	_, second, _ := images.Pull("minimal-service:wasm")
	if second {
		t.Fatal("second pull flagged as first")
	}
	if _, _, err := images.Pull("ghost:latest"); err == nil {
		t.Fatal("unknown image pulled")
	}
}

func TestPythonImageLayout(t *testing.T) {
	images, _ := NewImageStore()
	img, _, err := images.Pull("python-minimal-service:3.11")
	if err != nil {
		t.Fatal(err)
	}
	if img.Wasm {
		t.Fatal("python image marked wasm")
	}
	if img.Entrypoint[0] != "python3" {
		t.Fatalf("entrypoint = %v", img.Entrypoint)
	}
	if _, err := img.Rootfs.Stat("/app/app.py"); err != nil {
		t.Fatal("script missing")
	}
	// Python image carries a much larger layer and scratch footprint.
	wasm, _, _ := images.Pull("minimal-service:wasm")
	if img.SizeBytes <= wasm.SizeBytes*10 {
		t.Fatalf("python image (%d) should dwarf wasm image (%d)", img.SizeBytes, wasm.SizeBytes)
	}
}

func TestSnapshotterIsolation(t *testing.T) {
	images, _ := NewImageStore()
	img, _, _ := images.Pull("minimal-service:wasm")
	s := NewSnapshotter()
	fs1, err := s.Prepare("c1", img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("c1", img); err == nil {
		t.Fatal("duplicate snapshot accepted")
	}
	fs2, err := s.Prepare("c2", img)
	if err != nil {
		t.Fatal(err)
	}
	// Writable layers are independent.
	fs1.WriteFile("/scratch", []byte("one"))
	if _, err := fs2.Stat("/scratch"); err == nil {
		t.Fatal("snapshots share state")
	}
	if _, err := img.Rootfs.Stat("/scratch"); err == nil {
		t.Fatal("snapshot wrote through to the image")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	s.Remove("c1")
	if s.Count() != 1 {
		t.Fatal("remove failed")
	}
}

// TestPrepareAllocs: a snapshot shares the image's files instead of
// copying them, so Prepare costs the clone's FS and the amortised growth of
// the snapshot table, whatever the image holds.
func TestPrepareAllocs(t *testing.T) {
	images, _ := NewImageStore()
	img, _, _ := images.Pull("python-minimal-service:3.11")
	s := NewSnapshotter()
	keys := make([]string, 101)
	for i := range keys {
		keys[i] = fmt.Sprint("c", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Prepare(keys[i], img); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("Prepare allocates %v times per call, want at most 2", allocs)
	}
}

// TestGuestWritesStayInTheirContainer: two crun-wamr containers of one
// file-io image start from snapshots that share the image's files. The file
// each guest writes lands in its own rootfs, not in its sibling's and not in
// the image.
func TestGuestWritesStayInTheirContainer(t *testing.T) {
	c := testClient(t)
	var ctrs []*Container
	for _, id := range []string{"io-a", "io-b"} {
		ctr, err := c.CreateContainer(id, "file-io:wasm", HandlerCrunWAMR, ContainerOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ctrs = append(ctrs, ctr)
	}
	a, b := ctrs[0].Bundle.Rootfs, ctrs[1].Bundle.Rootfs
	for i, ctr := range ctrs {
		task, _ := ctr.NewTask()
		rep, err := task.Start()
		if err != nil || rep.ExitCode != 0 {
			t.Fatalf("%s: start = %+v, %v", ctr.ID, rep, err)
		}
		if i == 0 {
			if _, err := b.Stat("/state.bin"); err == nil {
				t.Fatal("io-b sees the file io-a's guest wrote")
			}
		}
	}
	for _, fs := range []*vfs.FS{a, b} {
		if data, err := fs.ReadFile("/state.bin"); err != nil || string(data) != "persisted-payload" {
			t.Fatalf("guest file = %q, %v", data, err)
		}
	}
	if err := a.WriteFile("/state.bin", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := b.ReadFile("/state.bin"); string(data) != "persisted-payload" {
		t.Fatalf("io-b reads %q after io-a's file changed", data)
	}
	img, _, _ := c.images.Pull("file-io:wasm")
	root, _ := img.Rootfs.ReadDir("/")
	tmp, _ := img.Rootfs.ReadDir("/tmp")
	if len(root) != 2 || root[0].Name != "app.wasm" || root[1].Name != "tmp" || len(tmp) != 0 {
		t.Fatalf("image rootfs holds %+v, /tmp %+v; want only /app.wasm and an empty /tmp", root, tmp)
	}
}

func TestRuncShimPathLifecycle(t *testing.T) {
	c := testClient(t)
	ctr, err := c.CreateContainer("c1", "minimal-service:wasm", HandlerCrunWAMR, ContainerOpts{
		CgroupsPath: "/kubepods/pod1/app",
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := ctr.NewTask()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctr.NewTask(); err == nil {
		t.Fatal("duplicate task accepted")
	}
	rep, err := task.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stdout != "service ready\n" {
		t.Fatalf("stdout = %q", rep.Stdout)
	}
	if rep.Cost.TaskLockHold != runcShimTaskLockHold {
		t.Fatalf("lock hold = %v", rep.Cost.TaskLockHold)
	}
	if !strings.Contains(rep.Handler, "crun-wamr") {
		t.Fatalf("handler = %q", rep.Handler)
	}
	// The shim process exists in the system slice.
	shimCg, ok := c.Node().Cgroup("/system.slice/containerd-shims")
	if !ok || shimCg.MemoryCurrent() == 0 {
		t.Fatal("no shim memory in system slice")
	}
	// Double start fails; kill then delete succeeds.
	if _, err := task.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if err := c.Delete("c1"); err == nil {
		t.Fatal("delete of running container accepted")
	}
	if err := task.Kill(); err != nil {
		t.Fatal(err)
	}
	if shimCg.MemoryCurrent() != 0 {
		t.Fatal("shim memory leaked")
	}
	if err := c.Delete("c1"); err != nil {
		t.Fatal(err)
	}
	if len(c.Containers()) != 0 {
		t.Fatal("container still listed")
	}
}

func TestRunwasiPathLifecycle(t *testing.T) {
	c := testClient(t)
	ctr, err := c.CreateContainer("w1", "minimal-service:wasm", HandlerShimWasmtime, ContainerOpts{
		CgroupsPath: "/kubepods/podw/app",
	})
	if err != nil {
		t.Fatal(err)
	}
	task, _ := ctr.NewTask()
	rep, err := task.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handler != "runwasi:wasmtime" {
		t.Fatalf("handler = %q", rep.Handler)
	}
	if rep.Stdout != "service ready\n" {
		t.Fatalf("stdout = %q", rep.Stdout)
	}
	// runwasi serializes much longer on the task lock than shim-runc-v2.
	if rep.Cost.TaskLockHold <= runcShimTaskLockHold*10 {
		t.Fatalf("runwasi lock hold %v suspiciously small", rep.Cost.TaskLockHold)
	}
	// Pod cgroup holds the wasm host process memory.
	podCg, ok := c.Node().Cgroup("/kubepods/podw")
	if !ok || podCg.MemoryCurrent() == 0 {
		t.Fatal("no pod memory for runwasi container")
	}
	if err := task.Kill(); err != nil {
		t.Fatal(err)
	}
	if podCg.MemoryCurrent() != 0 {
		t.Fatal("runwasi pod memory leaked")
	}
}

func TestRunwasiRejectsNonWasmImage(t *testing.T) {
	c := testClient(t)
	ctr, err := c.CreateContainer("p1", "python-minimal-service:3.11", HandlerShimWasmtime, ContainerOpts{
		CgroupsPath: "/kubepods/podp/app",
	})
	if err != nil {
		t.Fatal(err)
	}
	task, _ := ctr.NewTask()
	if _, err := task.Start(); err == nil {
		t.Fatal("runwasi started a python image")
	}
}

func TestDaemonGrowthAccounting(t *testing.T) {
	c := testClient(t)
	daemonCg, _ := c.Node().Cgroup("/system.slice/containerd")
	base := daemonCg.MemoryCurrent()
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		if _, err := c.CreateContainer(id, "minimal-service:wasm", HandlerCrunWAMR, ContainerOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	grown := daemonCg.MemoryCurrent() - base
	want := 5 * simos.RoundPages(daemonGrowthPerContainer)
	// First pull also charges the image layer cache to the daemon cgroup.
	if grown < want {
		t.Fatalf("daemon growth = %d, want >= %d", grown, want)
	}
}

func TestHandlerClassification(t *testing.T) {
	if !HandlerShimWasmtime.IsRunwasi() || HandlerCrunWAMR.IsRunwasi() {
		t.Fatal("IsRunwasi")
	}
	if !HandlerCrunWAMR.IsWasm() || HandlerRunc.IsWasm() || HandlerCrun.IsWasm() {
		t.Fatal("IsWasm")
	}
	for _, h := range []RuntimeHandler{HandlerCrunWAMR, HandlerShimWasmer, HandlerCrunWasmEdge} {
		if _, ok := h.engineFor(); !ok {
			t.Errorf("%s has no engine", h)
		}
	}
	if _, ok := HandlerRunc.engineFor(); ok {
		t.Error("runc should have no engine")
	}
}

func TestSpecForImage(t *testing.T) {
	images, _ := NewImageStore()
	img, _, _ := images.Pull("minimal-service:wasm")
	spec := SpecForImage(img, "/kubepods/p/c", []string{"MODE=x"}, []string{"--flag"})
	if spec.Annotations["module.wasm.image/variant"] != "compat" {
		t.Fatal("wasm annotation missing")
	}
	if spec.Process.Args[len(spec.Process.Args)-1] != "--flag" {
		t.Fatalf("args = %v", spec.Process.Args)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	py, _, _ := images.Pull("python-minimal-service:3.11")
	pySpec := SpecForImage(py, "/kubepods/p/c", nil, nil)
	if _, ok := pySpec.Annotations["module.wasm.image/variant"]; ok {
		t.Fatal("python image got wasm annotation")
	}
}

func TestClientAccessors(t *testing.T) {
	c := testClient(t)
	ctr, err := c.CreateContainer("acc", "minimal-service:wasm", HandlerCrunWAMR, ContainerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Container("acc")
	if !ok || got != ctr {
		t.Fatal("Container lookup")
	}
	if _, ok := c.Container("ghost"); ok {
		t.Fatal("ghost container found")
	}
	task, err := ctr.NewTask()
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Task() != task {
		t.Fatal("Task accessor")
	}
	if task.Report() != nil {
		t.Fatal("report before start")
	}
	rep, err := task.Start()
	if err != nil {
		t.Fatal(err)
	}
	if task.Report() != rep {
		t.Fatal("Report accessor after start")
	}
}

func TestPrePullChargesOnce(t *testing.T) {
	c := testClient(t)
	free0 := c.Node().Free().UsedBytes
	if err := c.PrePull("python-minimal-service:3.11"); err != nil {
		t.Fatal(err)
	}
	free1 := c.Node().Free().UsedBytes
	if free1 <= free0 {
		t.Fatal("first pull charged nothing")
	}
	if err := c.PrePull("python-minimal-service:3.11"); err != nil {
		t.Fatal(err)
	}
	if c.Node().Free().UsedBytes != free1 {
		t.Fatal("second pull charged again")
	}
	if err := c.PrePull("ghost:v1"); err == nil {
		t.Fatal("pulled unknown image")
	}
}

func TestImageStoreAddCustom(t *testing.T) {
	images, _ := NewImageStore()
	img, err := BuildWasmImage("custom:wasm", "/svc.wasm", []byte("\x00asm\x01\x00\x00\x00"))
	if err != nil {
		t.Fatal(err)
	}
	images.Add(img)
	got, first, err := images.Pull("custom:wasm")
	if err != nil || !first || got.Name != "custom:wasm" {
		t.Fatalf("pull custom: %v %v %v", got, first, err)
	}
	if got.Entrypoint[0] != "/svc.wasm" {
		t.Fatalf("entrypoint = %v", got.Entrypoint)
	}
}

func TestYoukiHandlerThroughContainerd(t *testing.T) {
	c := testClient(t)
	ctr, err := c.CreateContainer("y", "minimal-service:wasm", HandlerYouki, ContainerOpts{
		CgroupsPath: "/kubepods/pody/app",
	})
	if err != nil {
		t.Fatal(err)
	}
	task, _ := ctr.NewTask()
	rep, err := task.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Handler, "youki") || !strings.Contains(rep.Handler, "wasmedge") {
		t.Fatalf("handler = %q", rep.Handler)
	}
}

func TestUnknownHandlerFails(t *testing.T) {
	c := testClient(t)
	ctr, err := c.CreateContainer("u", "minimal-service:wasm", RuntimeHandler("bogus"), ContainerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	task, _ := ctr.NewTask()
	if _, err := task.Start(); err == nil {
		t.Fatal("bogus handler started")
	}
}
