package oci

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wasmcontainers/internal/vfs"
)

func validSpec() *Spec {
	return &Spec{
		Version: SpecVersion,
		Process: Process{Args: []string{"/app.wasm"}, Env: []string{"A=1"}, Cwd: "/"},
		Root:    Root{Path: "rootfs"},
		Linux:   &Linux{CgroupsPath: "/pods/x", Namespaces: DefaultNamespaces()},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	s := validSpec()
	s.Version = ""
	if err := s.Validate(); err == nil {
		t.Error("missing version accepted")
	}
	s = validSpec()
	s.Process.Args = nil
	if err := s.Validate(); err == nil {
		t.Error("empty args accepted")
	}
	s = validSpec()
	s.Root.Path = ""
	if err := s.Validate(); err == nil {
		t.Error("empty root accepted")
	}
	s = validSpec()
	s.Process.Env = []string{"MALFORMED"}
	if err := s.Validate(); err == nil {
		t.Error("malformed env accepted")
	}
}

func TestWasmDetection(t *testing.T) {
	// Via annotation.
	s := validSpec()
	s.Process.Args = []string{"/bin/app"}
	s.Annotations = map[string]string{WasmVariantAnnotation: "compat"}
	if !s.IsWasm() {
		t.Error("compat annotation not detected")
	}
	s.Annotations = map[string]string{WasmVariantAnnotation: "compat-smart"}
	if !s.IsWasm() {
		t.Error("compat-smart annotation not detected")
	}
	// Via handler annotation.
	s.Annotations = map[string]string{WasmHandlerAnnotation: "wasm"}
	if !s.IsWasm() {
		t.Error("handler annotation not detected")
	}
	// Via .wasm entrypoint.
	s = validSpec()
	if !s.IsWasm() {
		t.Error(".wasm entrypoint not detected")
	}
	// Plain native container.
	s = validSpec()
	s.Process.Args = []string{"python3", "app.py"}
	if s.IsWasm() {
		t.Error("python container misdetected as wasm")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Annotations = map[string]string{WasmVariantAnnotation: "compat"}
	s.Mounts = []Mount{{Destination: "/data", Type: "bind", Source: "/host/data"}}
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "module.wasm.image/variant") {
		t.Fatalf("annotation missing from config.json:\n%s", b)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Process.Args[0] != "/app.wasm" || back.Mounts[0].Destination != "/data" {
		t.Fatalf("roundtrip lost data: %+v", back)
	}
}

func TestBundleRequiresValidSpec(t *testing.T) {
	s := validSpec()
	s.Process.Args = nil
	if _, err := NewBundle("/b", s, vfs.New()); err == nil {
		t.Fatal("bundle with invalid spec accepted")
	}
	if _, err := NewBundle("/b", validSpec(), vfs.New()); err != nil {
		t.Fatal(err)
	}
}

func TestContainerTable(t *testing.T) {
	tab := NewContainerTable()
	b, _ := NewBundle("/b", validSpec(), vfs.New())
	c, err := tab.Add("c1", b)
	if err != nil || c.Status != StatusCreated {
		t.Fatalf("add: %v %v", c, err)
	}
	if _, err := tab.Add("c1", b); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate add: %v", err)
	}
	got, err := tab.Get("c1")
	if err != nil || got != c {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := tab.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v", err)
	}
	// Running containers cannot be removed.
	c.Status = StatusRunning
	if err := tab.Remove("c1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("remove running: %v", err)
	}
	c.Status = StatusStopped
	if err := tab.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Remove("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
	if len(tab.List()) != 0 {
		t.Fatal("list not empty")
	}
}

func TestDefaultNamespaces(t *testing.T) {
	ns := DefaultNamespaces()
	want := map[string]bool{"pid": true, "network": true, "ipc": true, "uts": true, "mount": true, "cgroup": true}
	if len(ns) != len(want) {
		t.Fatalf("namespaces = %v", ns)
	}
	for _, n := range ns {
		if !want[n.Type] {
			t.Errorf("unexpected namespace %q", n.Type)
		}
	}
}
