package containerd

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"wasmcontainers/internal/core"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/oci"
	"wasmcontainers/internal/runtimes"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm/cache"
)

// Version is the simulated containerd version (Table I).
const Version = "1.7.1"

// RuntimeHandler selects the execution path for a container, mirroring
// Kubernetes RuntimeClass handlers.
type RuntimeHandler string

// The handlers the paper evaluates.
const (
	// HandlerRunc is Kubernetes' default: shim-runc-v2 + runC.
	HandlerRunc RuntimeHandler = "runc"
	// HandlerCrun is shim-runc-v2 + crun (native containers).
	HandlerCrun RuntimeHandler = "crun"
	// HandlerCrunWAMR is the paper's contribution: crun with embedded WAMR.
	HandlerCrunWAMR RuntimeHandler = "crun-wamr"
	// Other engines embedded in crun (Figure 3/4 baselines).
	HandlerCrunWasmtime RuntimeHandler = "crun-wasmtime"
	HandlerCrunWasmer   RuntimeHandler = "crun-wasmer"
	HandlerCrunWasmEdge RuntimeHandler = "crun-wasmedge"
	// HandlerYouki is shim-runc-v2 + youki.
	HandlerYouki RuntimeHandler = "youki"
	// runwasi shims (Figure 5 baselines): Wasm directly from containerd.
	HandlerShimWasmtime RuntimeHandler = "io.containerd.wasmtime.v1"
	HandlerShimWasmEdge RuntimeHandler = "io.containerd.wasmedge.v1"
	HandlerShimWasmer   RuntimeHandler = "io.containerd.wasmer.v1"
)

// IsRunwasi reports whether the handler is a runwasi shim.
func (h RuntimeHandler) IsRunwasi() bool {
	switch h {
	case HandlerShimWasmtime, HandlerShimWasmEdge, HandlerShimWasmer:
		return true
	}
	return false
}

// IsWasm reports whether the handler executes WebAssembly.
func (h RuntimeHandler) IsWasm() bool {
	switch h {
	case HandlerCrunWAMR, HandlerCrunWasmtime, HandlerCrunWasmer, HandlerCrunWasmEdge:
		return true
	}
	return h.IsRunwasi()
}

// engineFor maps a handler to its engine profile.
func (h RuntimeHandler) engineFor() (engine.Profile, bool) {
	switch h {
	case HandlerCrunWAMR:
		return engine.WAMR, true
	case HandlerCrunWasmtime, HandlerShimWasmtime:
		return engine.Wasmtime, true
	case HandlerCrunWasmer, HandlerShimWasmer:
		return engine.Wasmer, true
	case HandlerCrunWasmEdge, HandlerShimWasmEdge:
		return engine.WasmEdge, true
	}
	return engine.Profile{}, false
}

// Per-container daemon bookkeeping and shim model constants.
const (
	// daemonGrowthPerContainer is containerd daemon heap growth per managed
	// container (system slice; `free` view only).
	daemonGrowthPerContainer = 358 * kib
	// runcShimPrivateBytes is the resident size of one shim-runc-v2 process.
	runcShimPrivateBytes = 461 * kib
	// runcShimTaskLockHold is the task-service serialization for the
	// shim-runc-v2 path (cheap: the shim is reused per pod and the heavy
	// work happens outside the lock).
	runcShimTaskLockHold = 2 * time.Millisecond
	// pauseBytes is the pod pause container (charged in the pod cgroup by
	// the CRI layer; defined here for reuse).
	PauseContainerBytes = 307 * kib
)

// StartCost is the simulated cost of one containerd task start.
type StartCost struct {
	FixedDelay   time.Duration
	CPUWork      time.Duration
	TaskLockHold time.Duration
}

// TaskReport is the outcome of Task.Start.
type TaskReport struct {
	Cost         StartCost
	Pid          int
	ExitCode     uint32
	Stdout       string
	Instructions uint64
	Handler      string
}

// Client is a containerd instance bound to one node.
type Client struct {
	mu     sync.Mutex
	node   *simos.Node
	images *ImageStore
	snap   *Snapshotter
	daemon *simos.Process

	lowlevel map[RuntimeHandler]oci.Runtime
	// shimEngines is the runwasi counterpart of lowlevel: one engine per
	// profile, shared by every shim start on that profile.
	shimEngines map[string]*engine.Engine
	ctrs        map[string]*Container
	// modCache is the node-level compiled-module cache: every runwasi shim
	// and crun handler this client constructs resolves module digests against
	// it, so a module binary compiles once per node regardless of how many
	// containers (or which runtime path) run it.
	modCache *cache.Cache
}

// NewClient starts a containerd instance on the node.
func NewClient(node *simos.Node, images *ImageStore) (*Client, error) {
	daemon, err := node.Spawn("containerd", "/system.slice/containerd")
	if err != nil {
		return nil, err
	}
	return &Client{
		node:        node,
		images:      images,
		snap:        NewSnapshotter(),
		daemon:      daemon,
		lowlevel:    make(map[RuntimeHandler]oci.Runtime),
		shimEngines: make(map[string]*engine.Engine),
		ctrs:        make(map[string]*Container),
		modCache:    cache.New(engine.DefaultModuleCacheBytes),
	}, nil
}

// Node returns the client's node.
func (c *Client) Node() *simos.Node { return c.node }

// runtimeFor lazily constructs the low-level runtime behind a handler.
func (c *Client) runtimeFor(h RuntimeHandler) (oci.Runtime, error) {
	if rt, ok := c.lowlevel[h]; ok {
		return rt, nil
	}
	var rt oci.Runtime
	switch h {
	case HandlerRunc:
		rt = runtimes.NewRunC(c.node)
	case HandlerCrun:
		rt = core.New(core.Config{Node: c.node, ModuleCache: c.modCache})
	case HandlerYouki:
		rt = runtimes.NewYouki(c.node, engine.WasmEdge)
	case HandlerCrunWAMR, HandlerCrunWasmtime, HandlerCrunWasmer, HandlerCrunWasmEdge:
		prof, _ := h.engineFor()
		rt = core.New(core.Config{Node: c.node, Engine: prof, ModuleCache: c.modCache})
	default:
		return nil, fmt.Errorf("containerd: no low-level runtime for handler %q", h)
	}
	c.lowlevel[h] = rt
	return rt, nil
}

// shimEngineFor lazily constructs the engine the shims of a runwasi handler
// share (every runwasi handler has a profile).
func (c *Client) shimEngineFor(h RuntimeHandler) *engine.Engine {
	prof, _ := h.engineFor()
	eng, ok := c.shimEngines[prof.Name]
	if !ok {
		eng = engine.NewWithCache(prof, c.modCache)
		c.shimEngines[prof.Name] = eng
	}
	return eng
}

// Container is a containerd container record.
type Container struct {
	ID      string
	Image   *Image
	Handler RuntimeHandler
	Spec    *oci.Spec
	Bundle  *oci.Bundle
	client  *Client
	task    *Task
}

// ContainerOpts customizes container creation.
type ContainerOpts struct {
	// CgroupsPath places the container's processes (default
	// "/containerd/<id>").
	CgroupsPath string
	// ExtraEnv and ExtraArgs extend the image entrypoint.
	ExtraEnv  []string
	ExtraArgs []string
}

// CreateContainer pulls the image, prepares a snapshot, and registers the
// container with the chosen runtime handler.
func (c *Client) CreateContainer(id, imageName string, handler RuntimeHandler, opts ContainerOpts) (*Container, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ctrs[id]; ok {
		return nil, fmt.Errorf("containerd: container %q exists", id)
	}
	img, first, err := c.images.Pull(imageName)
	if err != nil {
		return nil, err
	}
	if first {
		// Unpacked layers enter the page cache once per node.
		c.daemon.ChargeCache(img.SizeBytes)
	}
	rootfs, err := c.snap.Prepare(id, img)
	if err != nil {
		return nil, err
	}
	if opts.CgroupsPath == "" {
		opts.CgroupsPath = "/containerd/" + id
	}
	spec := SpecForImage(img, opts.CgroupsPath, opts.ExtraEnv, opts.ExtraArgs)
	bundle, err := oci.NewBundle("/run/containerd/"+id, spec, rootfs)
	if err != nil {
		return nil, err
	}
	ctr := &Container{ID: id, Image: img, Handler: handler, Spec: spec, Bundle: bundle, client: c}
	c.ctrs[id] = ctr
	// Daemon bookkeeping grows per container.
	if err := c.daemon.MapPrivate(daemonGrowthPerContainer); err != nil {
		return nil, err
	}
	return ctr, nil
}

// Container looks up a container by ID.
func (c *Client) Container(id string) (*Container, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.ctrs[id]
	return ctr, ok
}

// Containers lists container IDs.
func (c *Client) Containers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.ctrs))
	for id := range c.ctrs {
		out = append(out, id)
	}
	return out
}

// Task is the running incarnation of a container, managed through a shim.
type Task struct {
	ctr      *Container
	report   *TaskReport
	started  bool
	shimProc *simos.Process // shim-runc-v2 or runwasi shim system-side proc
	podProc  *simos.Process // runwasi container process (pod cgroup)
	runtime  oci.Runtime    // non-nil on the shim-runc-v2 path
}

// NewTask creates the task (shim selection happens here).
func (ctr *Container) NewTask() (*Task, error) {
	if ctr.task != nil {
		return nil, fmt.Errorf("containerd: task for %q exists", ctr.ID)
	}
	t := &Task{ctr: ctr}
	ctr.task = t
	return t, nil
}

// Task returns the container's task, if any.
func (ctr *Container) Task() *Task { return ctr.task }

// Start launches the container through its shim and returns the simulated
// cost plus real execution telemetry.
func (t *Task) Start() (*TaskReport, error) {
	if t.started {
		return nil, fmt.Errorf("containerd: task %q already started", t.ctr.ID)
	}
	var rep *TaskReport
	var err error
	if t.ctr.Handler.IsRunwasi() {
		rep, err = t.startRunwasi()
	} else {
		rep, err = t.startRuncShim()
	}
	if err != nil {
		return nil, err
	}
	t.started = true
	t.report = rep
	return rep, nil
}

// startRuncShim is the shim-runc-v2 path: a lightweight shim process drives
// the low-level OCI runtime (crun/runC/youki).
func (t *Task) startRuncShim() (*TaskReport, error) {
	c := t.ctr.client
	rt, err := c.runtimeFor(t.ctr.Handler)
	if err != nil {
		return nil, err
	}
	shim, err := c.node.Spawn("containerd-shim-runc-v2["+t.ctr.ID+"]", "/system.slice/containerd-shims")
	if err != nil {
		return nil, err
	}
	if err := shim.MapPrivate(runcShimPrivateBytes); err != nil {
		shim.Exit()
		return nil, err
	}
	// Writable layer + logs enter the page cache, attributed system-side.
	shim.ChargeCache(t.ctr.Image.ScratchBytesPerContainer)
	t.shimProc = shim
	t.runtime = rt

	if err := rt.Create(t.ctr.ID, t.ctr.Bundle); err != nil {
		shim.Exit()
		return nil, err
	}
	rep, err := rt.Start(t.ctr.ID)
	if err != nil {
		shim.Exit()
		return nil, err
	}
	return &TaskReport{
		Cost: StartCost{
			FixedDelay:   rep.Cost.FixedDelay,
			CPUWork:      rep.Cost.CPUWork,
			TaskLockHold: runcShimTaskLockHold,
		},
		Pid:          rep.Pid,
		ExitCode:     rep.ExitCode,
		Stdout:       rep.Stdout,
		Instructions: rep.Instructions,
		Handler:      string(t.ctr.Handler) + "/" + rep.Handler,
	}, nil
}

// startRunwasi is the runwasi path: the shim itself hosts the Wasm runtime
// and executes the module, bypassing low-level OCI runtimes entirely.
func (t *Task) startRunwasi() (*TaskReport, error) {
	c := t.ctr.client
	eng := c.shimEngineFor(t.ctr.Handler)
	prof := eng.Profile
	spec := t.ctr.Spec
	modulePath := spec.Process.Args[0]
	bin, err := t.ctr.Bundle.Rootfs.ReadFile(modulePath)
	if err != nil {
		return nil, fmt.Errorf("containerd: runwasi: reading module %s: %w", modulePath, err)
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		return nil, fmt.Errorf("containerd: runwasi: %w", err)
	}
	var stdout bytes.Buffer
	res, err := eng.Run(cm, wasi.Config{
		Args:   spec.Process.Args,
		Env:    spec.Process.Env,
		Stdout: &stdout,
		Stderr: &stdout,
		Preopens: []wasi.Preopen{
			{GuestPath: "/", FS: t.ctr.Bundle.Rootfs, HostPath: "/"},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("containerd: runwasi: %w", err)
	}

	// Copy-on-write guest memory: the shim's private charge covers only
	// dirtied pages; clean pages alias the module's shared baseline image.
	podBytes, sysBytes := eng.ShimFootprint(res.GuestPrivateBytes)
	podProc, err := c.node.Spawn(prof.ShimBinaryName+"["+t.ctr.ID+"]", spec.Linux.CgroupsPath)
	if err != nil {
		return nil, err
	}
	if err := podProc.MapPrivate(podBytes); err != nil {
		podProc.Exit()
		return nil, err
	}
	podProc.MapShared(prof.ShimBinaryName, prof.ShimBinaryBytes)
	// One node-wide copy of the compiled-module artifact and of the baseline
	// memory image, shared by every shim running the same module digest
	// (tier-1 code is a warm-pool artifact, as in core/crun).
	arts := cm.SharedArtifacts()
	for _, a := range arts[:engine.ArtifactTier1] {
		if a.Bytes > 0 {
			podProc.MapShared(a.Name, a.Bytes)
		}
	}
	t.podProc = podProc

	sysProc, err := c.node.Spawn(prof.ShimBinaryName+"-mgr["+t.ctr.ID+"]", "/system.slice/containerd-shims")
	if err != nil {
		podProc.Exit()
		return nil, err
	}
	if sysBytes > 0 {
		if err := sysProc.MapPrivate(sysBytes); err != nil {
			podProc.Exit()
			sysProc.Exit()
			return nil, err
		}
	}
	sysProc.ChargeCache(t.ctr.Image.ScratchBytesPerContainer)
	t.shimProc = sysProc

	delay, cpu, lock := eng.ShimStartCost(res.SimulatedExecTime)
	return &TaskReport{
		Cost:         StartCost{FixedDelay: delay, CPUWork: cpu, TaskLockHold: lock},
		Pid:          podProc.PID,
		ExitCode:     res.ExitCode,
		Stdout:       stdout.String(),
		Instructions: res.Instructions,
		Handler:      "runwasi:" + prof.Name,
	}, nil
}

// Report returns the start report (nil before Start).
func (t *Task) Report() *TaskReport { return t.report }

// Kill stops the container's processes.
func (t *Task) Kill() error {
	if !t.started {
		return fmt.Errorf("containerd: task %q not started", t.ctr.ID)
	}
	if t.runtime != nil {
		if err := t.runtime.Kill(t.ctr.ID, 9); err != nil {
			return err
		}
	}
	if t.podProc != nil {
		t.podProc.Exit()
		t.podProc = nil
	}
	if t.shimProc != nil {
		t.shimProc.Exit()
		t.shimProc = nil
	}
	t.started = false
	return nil
}

// Delete removes a stopped task and its container resources.
func (c *Client) Delete(id string) error {
	c.mu.Lock()
	ctr, ok := c.ctrs[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("containerd: container %q not found", id)
	}
	if ctr.task != nil && ctr.task.started {
		return fmt.Errorf("containerd: container %q still running", id)
	}
	if ctr.task != nil && ctr.task.runtime != nil {
		if err := ctr.task.runtime.Delete(id); err != nil {
			return err
		}
	}
	c.snap.Remove(id)
	c.mu.Lock()
	delete(c.ctrs, id)
	c.mu.Unlock()
	c.daemon.UnmapPrivate(daemonGrowthPerContainer)
	return nil
}

// PrePull fetches an image ahead of container creation so its layer cache is
// charged before measurements begin (benchmarks measure steady-state
// per-container cost, with images already present, as the paper does).
func (c *Client) PrePull(imageName string) error {
	img, first, err := c.images.Pull(imageName)
	if err != nil {
		return err
	}
	if first {
		c.daemon.ChargeCache(img.SizeBytes)
	}
	return nil
}
