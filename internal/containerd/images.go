// Package containerd models the high-level container runtime: an image
// store, a snapshotter, a task service with its serialization point, and the
// two shim families the paper benchmarks — containerd-shim-runc-v2 (which
// drives the low-level OCI runtimes crun/runC/youki) and the runwasi shims
// (containerd-shim-wasmtime/-wasmedge/-wasmer) that execute WebAssembly
// directly from containerd, bypassing low-level runtimes.
package containerd

import (
	"fmt"
	"sync"

	"wasmcontainers/internal/oci"
	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/workloads"
)

// Image is a container image with its unpacked root filesystem. An image is
// read-only once built: every container of it shares its Rootfs (through
// copy-on-write snapshots) and its OCI spec template.
type Image struct {
	Name string
	// Rootfs holds the image's files.
	Rootfs *vfs.FS
	// SizeBytes is the compressed image size (page cache charged once per
	// node when pulled).
	SizeBytes int64
	// ScratchBytesPerContainer is the per-container writable-layer, log, and
	// metadata overhead (page cache, visible to `free` only).
	ScratchBytesPerContainer int64
	// Wasm marks OCI "compat" Wasm images.
	Wasm bool
	// Entrypoint is the default process args.
	Entrypoint []string
	// spec is the image's OCI spec template with no cgroup path, built on
	// the first SpecForImage and shared by every container it makes without
	// extras. Nothing writes to it.
	specOnce sync.Once
	spec     *oci.Spec
}

const (
	kib = int64(1024)
	mib = 1024 * kib
)

// ImageStore is a registry + local content store.
type ImageStore struct {
	mu     sync.Mutex
	images map[string]*Image
	pulled map[string]bool
}

// NewImageStore creates a store pre-populated with the benchmark images.
func NewImageStore() (*ImageStore, error) {
	s := &ImageStore{
		images: make(map[string]*Image),
		pulled: make(map[string]bool),
	}
	// Wasm workload images, one per workload.
	for _, name := range workloads.Names() {
		bin, err := workloads.Binary(name)
		if err != nil {
			return nil, err
		}
		img, err := BuildWasmImage(name+":wasm", "/app.wasm", bin)
		if err != nil {
			return nil, err
		}
		s.images[img.Name] = img
	}
	// The Python baseline image.
	img, err := BuildPythonImage("python-minimal-service:3.11", "/app/app.py", workloads.MinimalServicePy)
	if err != nil {
		return nil, err
	}
	s.images[img.Name] = img
	return s, nil
}

// BuildWasmImage assembles an OCI "compat" Wasm image holding one module.
func BuildWasmImage(name, modulePath string, moduleBin []byte) (*Image, error) {
	fsys := vfs.New()
	if err := fsys.WriteFile(modulePath, moduleBin); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll("/tmp"); err != nil {
		return nil, err
	}
	return &Image{
		Name:   name,
		Rootfs: fsys,
		// Wasm images are tiny: essentially the module itself.
		SizeBytes:                int64(len(moduleBin)) + 64*kib,
		ScratchBytesPerContainer: 307 * kib,
		Wasm:                     true,
		Entrypoint:               []string{modulePath},
	}, nil
}

// BuildPythonImage assembles a python:3.11-slim-style image with one script.
func BuildPythonImage(name, scriptPath, script string) (*Image, error) {
	fsys := vfs.New()
	if err := fsys.MkdirAll("/usr/bin"); err != nil {
		return nil, err
	}
	if err := fsys.WriteFile("/usr/bin/python3", []byte("#!interpreter pylite\n")); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll("/app"); err != nil {
		return nil, err
	}
	if err := fsys.WriteFile(scriptPath, []byte(script)); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll("/tmp"); err != nil {
		return nil, err
	}
	return &Image{
		Name:      name,
		Rootfs:    fsys,
		SizeBytes: 45 * mib, // python:3.11-slim compressed size
		// Bigger writable layer: interpreter pyc caches, logs.
		ScratchBytesPerContainer: 563 * kib,
		Entrypoint:               []string{"python3", scriptPath},
	}, nil
}

// Add registers a custom image.
func (s *ImageStore) Add(img *Image) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.images[img.Name] = img
}

// Pull fetches an image; the returned bool is true on first pull (when the
// layer cache must be charged).
func (s *ImageStore) Pull(name string) (*Image, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.images[name]
	if !ok {
		return nil, false, fmt.Errorf("containerd: image %q not found", name)
	}
	first := !s.pulled[name]
	s.pulled[name] = true
	return img, first, nil
}

// List returns all image names.
func (s *ImageStore) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.images))
	for name := range s.images {
		out = append(out, name)
	}
	return out
}

// Snapshotter materializes container root filesystems from images
// (overlayfs-style: the image rootfs is cloned per container). A snapshot is
// a copy-on-write vfs.Clone of the image's Rootfs: every container of an
// image shares the image's files, and a container's writes copy only the
// paths they touch into its own snapshot, never into the image or a sibling.
type Snapshotter struct {
	mu    sync.Mutex
	snaps map[string]*vfs.FS
}

// NewSnapshotter creates an empty snapshotter.
func NewSnapshotter() *Snapshotter {
	return &Snapshotter{snaps: make(map[string]*vfs.FS)}
}

// Prepare clones the image rootfs for a container.
func (s *Snapshotter) Prepare(key string, img *Image) (*vfs.FS, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.snaps[key]; ok {
		return nil, fmt.Errorf("containerd: snapshot %q exists", key)
	}
	clone := img.Rootfs.Clone()
	s.snaps[key] = clone
	return clone, nil
}

// Remove deletes a snapshot.
func (s *Snapshotter) Remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.snaps, key)
}

// Count returns the number of active snapshots.
func (s *Snapshotter) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snaps)
}

// SpecForImage returns an OCI spec running the image's entrypoint in the
// given pod cgroup. Without extras the spec is a shallow copy of the image's
// template: it shares the template's Process.Args/Env, Annotations and
// Linux.Namespaces and owns only its Linux record, so callers must treat
// those as read-only. ExtraEnv or ExtraArgs build a private spec.
func SpecForImage(img *Image, cgroupsPath string, extraEnv []string, extraArgs []string) *oci.Spec {
	img.specOnce.Do(func() { img.spec = newSpec(img, nil, nil) })
	tmpl := img.spec
	if len(extraEnv) > 0 || len(extraArgs) > 0 {
		tmpl = newSpec(img, extraEnv, extraArgs)
	}
	spec := *tmpl
	spec.Linux = &oci.Linux{CgroupsPath: cgroupsPath, Namespaces: tmpl.Linux.Namespaces}
	return &spec
}

// newSpec builds a spec of the image's entrypoint with no cgroup path.
func newSpec(img *Image, extraEnv []string, extraArgs []string) *oci.Spec {
	args := append(append([]string(nil), img.Entrypoint...), extraArgs...)
	annotations := map[string]string{}
	if img.Wasm {
		annotations[oci.WasmVariantAnnotation] = "compat"
	}
	return &oci.Spec{
		Version: oci.SpecVersion,
		Process: oci.Process{
			Args: args,
			Env:  append([]string{"PATH=/usr/bin"}, extraEnv...),
			Cwd:  "/",
		},
		Root:        oci.Root{Path: "rootfs"},
		Annotations: annotations,
		Linux:       &oci.Linux{Namespaces: oci.DefaultNamespaces()},
	}
}
