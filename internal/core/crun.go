// Package core implements the paper's primary contribution: the crun OCI
// runtime with an embedded WebAssembly Micro Runtime (WAMR) handler. The
// three integration aspects of Section III-C are all present as real control
// flow:
//
//  1. Dynamic library loading — the engine's shared library is mapped into
//     the container process on first use and its resident text is shared
//     across every Wasm container on the node (and costs nothing when no
//     Wasm container runs). A static-linking mode exists for the ablation
//     benchmark.
//  2. WASI argument handling — process args, environment variables, and
//     pre-opened directories from the OCI spec are forwarded to the Wasm
//     module through the wasi package.
//  3. Sandboxed execution — each module runs in its own store/instance with
//     bounded call depth, its own linear memory, and a VFS-backed root, on
//     top of the pod's namespace/cgroup isolation.
//
// The same crun implementation also embeds Wasmtime, Wasmer, and WasmEdge
// (the paper's Figure 3/4 baselines) and executes non-Wasm entrypoints via
// the pylite handler (Python containers).
package core

import (
	"bytes"
	"fmt"
	"path"
	"strings"
	"time"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/oci"
	"wasmcontainers/internal/pylite"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/vfs"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm/cache"
)

// Version is the simulated crun version (the paper's patched build).
const Version = "1.15-wamr"

// Config configures a crun instance on a node.
type Config struct {
	// Node is the machine containers run on.
	Node *simos.Node
	// Engine is the embedded Wasm engine profile; defaults to WAMR (the
	// paper's integration).
	Engine engine.Profile
	// StaticEngineLinking disables dynamic library loading (ablation): the
	// engine's library bytes are charged privately to every container
	// process instead of being shared node-wide.
	StaticEngineLinking bool
	// ModuleCache, when set, is a node-level compiled-module cache shared
	// with other runtimes on the node, so identical module binaries compile
	// once per node rather than once per runtime. Nil gives this crun a
	// private cache (still deduplicating across its own containers).
	ModuleCache *cache.Cache
	// CreateCPUWork is the CPU cost of crun's own create+start path.
	CreateCPUWork time.Duration
	// CreateFixedDelay is crun's non-CPU setup latency.
	CreateFixedDelay time.Duration
}

// DefaultCreateCPUWork is crun's create-path CPU cost (it is the fastest of
// the three low-level runtimes, per the paper's Section III-B rationale).
const DefaultCreateCPUWork = 500 * time.Millisecond

// Crun is the low-level OCI runtime with embedded Wasm support.
type Crun struct {
	cfg    Config
	table  *oci.ContainerTable
	eng    *engine.Engine
	python PythonHandler
	// procs maps container id -> simulated process.
	procs map[string]*simos.Process
}

// New creates a crun runtime on the given node.
func New(cfg Config) *Crun {
	if cfg.Engine.Name == "" {
		cfg.Engine = engine.WAMR
	}
	if cfg.CreateCPUWork == 0 {
		cfg.CreateCPUWork = DefaultCreateCPUWork
	}
	return &Crun{
		cfg:   cfg,
		table: oci.NewContainerTable(),
		eng:   engine.NewWithCache(cfg.Engine, cfg.ModuleCache),
		procs: make(map[string]*simos.Process),
	}
}

// Name implements oci.Runtime.
func (c *Crun) Name() string { return "crun" }

// Version implements oci.Runtime.
func (c *Crun) Version() string { return Version }

// Create implements oci.Runtime.
func (c *Crun) Create(id string, bundle *oci.Bundle) error {
	if err := bundle.Spec.Validate(); err != nil {
		return err
	}
	_, err := c.table.Add(id, bundle)
	return err
}

// Start implements oci.Runtime: it spawns the container process, dispatches
// to the Wasm or native handler, runs the entrypoint for real, and charges
// the process's memory according to the engine profile.
func (c *Crun) Start(id string) (*oci.StartReport, error) {
	ctr, err := c.table.Get(id)
	if err != nil {
		return nil, err
	}
	if ctr.Status != oci.StatusCreated {
		return nil, fmt.Errorf("%w: %s is %s", oci.ErrBadState, id, ctr.Status)
	}
	spec := ctr.Bundle.Spec
	cgPath := spec.Linux.CgroupsPath
	if cgPath == "" {
		cgPath = "/unmanaged/" + id
	}

	var report *oci.StartReport
	if spec.IsWasm() {
		report, err = c.startWasm(id, ctr, cgPath)
	} else {
		report, err = c.python.Start(c.cfg.Node, c.Name(), id, ctr, cgPath, c.procs)
	}
	if err != nil {
		return nil, err
	}
	report.Cost.CPUWork += c.cfg.CreateCPUWork
	report.Cost.FixedDelay += c.cfg.CreateFixedDelay
	ctr.Status = oci.StatusRunning
	ctr.Pid = report.Pid
	ctr.Handler = report.Handler
	return report, nil
}

// startWasm is the WAMR-crun integration path.
func (c *Crun) startWasm(id string, ctr *oci.Container, cgPath string) (*oci.StartReport, error) {
	spec := ctr.Bundle.Spec
	rootfs := ctr.Bundle.Rootfs

	// Locate the module inside the bundle rootfs.
	modulePath := spec.Process.Args[0]
	if !strings.HasPrefix(modulePath, "/") {
		modulePath = path.Join(spec.Process.Cwd, modulePath)
	}
	bin, err := rootfs.ReadFile(modulePath)
	if err != nil {
		return nil, fmt.Errorf("crun: wasm handler: reading module %s: %w", modulePath, err)
	}
	cm, err := c.eng.Compile(bin)
	if err != nil {
		return nil, fmt.Errorf("crun: wasm handler: %w", err)
	}

	// Integration aspect 2: WASI argument handling. Args/env come from the
	// OCI process spec; every mount destination plus the bundle root become
	// pre-opened directories.
	var stdout bytes.Buffer
	wasiCfg := wasi.Config{
		Args:   spec.Process.Args,
		Env:    spec.Process.Env,
		Stdout: &stdout,
		Stderr: &stdout,
		Preopens: []wasi.Preopen{
			{GuestPath: "/", FS: rootfs, HostPath: "/"},
		},
	}
	for _, m := range spec.Mounts {
		wasiCfg.Preopens = append(wasiCfg.Preopens, wasi.Preopen{
			GuestPath: m.Destination, FS: rootfs, HostPath: m.Destination,
		})
	}

	// Integration aspect 3: sandboxed execution — the module really runs
	// here, isolated in its own store.
	res, err := c.eng.Run(cm, wasiCfg)
	if err != nil {
		return nil, fmt.Errorf("crun: wasm handler: %w", err)
	}

	// Spawn the container process and charge memory.
	proc, err := c.cfg.Node.Spawn(fmt.Sprintf("crun-%s[%s]", c.cfg.Engine.Name, id), cgPath)
	if err != nil {
		return nil, err
	}
	// Copy-on-write guest memory: the container's private charge covers only
	// the pages its run dirtied; the clean remainder aliases the module's
	// shared baseline image, mapped once per node below.
	if err := proc.MapPrivate(c.eng.EmbedFootprint(res.GuestPrivateBytes)); err != nil {
		proc.Exit()
		return nil, err
	}
	// Integration aspect 1: dynamic library loading (shared across all Wasm
	// containers) vs static linking (ablation: charged per container).
	if c.cfg.StaticEngineLinking {
		if err := proc.MapPrivate(c.cfg.Engine.SharedLibBytes); err != nil {
			proc.Exit()
			return nil, err
		}
	} else {
		proc.MapShared(c.cfg.Engine.SharedLibName, c.cfg.Engine.SharedLibBytes)
	}
	// The compiled-module artifact is content-addressed and immutable, so
	// like the engine library it is mapped shared: N containers running the
	// same module charge the node one copy of compiled code. The baseline
	// memory image (post-instantiation linear memory) is its data-side twin,
	// mapped shared under the same digest. A container runs its command
	// once, so it maps what it started from; tier-1 code is charged by the
	// long-lived warm pools that earn it.
	arts := cm.SharedArtifacts()
	for _, a := range arts[:engine.ArtifactTier1] {
		if a.Bytes > 0 {
			proc.MapShared(a.Name, a.Bytes)
		}
	}
	c.procs[id] = proc

	delay, cpu := c.eng.EmbedStartCost(res.SimulatedExecTime)
	return &oci.StartReport{
		Cost:         oci.StartCost{FixedDelay: delay, CPUWork: cpu},
		Pid:          proc.PID,
		ExitCode:     res.ExitCode,
		Stdout:       stdout.String(),
		Instructions: res.Instructions,
		Handler:      "wasm:" + c.cfg.Engine.Name,
	}, nil
}

// State implements oci.Runtime.
func (c *Crun) State(id string) (oci.State, error) {
	ctr, err := c.table.Get(id)
	if err != nil {
		return oci.State{}, err
	}
	return oci.State{
		Version: oci.SpecVersion, ID: id, Status: ctr.Status, Pid: ctr.Pid,
		Bundle: ctr.Bundle.Path, Annotations: ctr.Bundle.Spec.Annotations,
	}, nil
}

// Kill implements oci.Runtime.
func (c *Crun) Kill(id string, signal int) error {
	ctr, err := c.table.Get(id)
	if err != nil {
		return err
	}
	if ctr.Status != oci.StatusRunning {
		return fmt.Errorf("%w: %s is %s", oci.ErrBadState, id, ctr.Status)
	}
	if p, ok := c.procs[id]; ok {
		p.Exit()
		delete(c.procs, id)
	}
	ctr.Status = oci.StatusStopped
	return nil
}

// Delete implements oci.Runtime.
func (c *Crun) Delete(id string) error {
	ctr, err := c.table.Get(id)
	if err != nil {
		return err
	}
	if ctr.Status == oci.StatusRunning {
		return fmt.Errorf("%w: %s is running", oci.ErrBadState, id)
	}
	return c.table.Remove(id)
}

// List implements oci.Runtime.
func (c *Crun) List() []string { return c.table.List() }

// PythonHandler executes non-Wasm (Python) entrypoints via the pylite
// interpreter; it is shared by crun, runC, and youki. The zero value is
// ready to use.
type PythonHandler struct{}

// PythonProfile holds the CPython-equivalent footprint/cost model.
var PythonProfile = struct {
	Version        string
	PrivateBytes   int64
	SharedLibName  string
	SharedLibBytes int64
	FixedDelay     time.Duration
	CPUWork        time.Duration
	NsPerStep      float64
}{
	Version:        "3.11",
	PrivateBytes:   4690 * 1024,
	SharedLibName:  "libpython3.11.so",
	SharedLibBytes: 5 * 1024 * 1024,
	FixedDelay:     50 * time.Millisecond,
	CPUWork:        2770 * time.Millisecond,
	NsPerStep:      40,
}

// DefaultMaxGuestSteps bounds runaway guest programs.
const DefaultMaxGuestSteps = 50_000_000

// Start runs a Python entrypoint: `python3 <script>` (or any argv whose
// first element names a python binary).
func (h *PythonHandler) Start(node *simos.Node, runtimeName, id string, ctr *oci.Container, cgPath string, procs map[string]*simos.Process) (*oci.StartReport, error) {
	spec := ctr.Bundle.Spec
	args := spec.Process.Args
	if len(args) < 2 || !strings.Contains(args[0], "python") {
		return nil, fmt.Errorf("%w: %v", oci.ErrNoHandler, args)
	}
	scriptPath := args[1]
	if !strings.HasPrefix(scriptPath, "/") {
		scriptPath = path.Join(spec.Process.Cwd, scriptPath)
	}
	src, err := readScript(ctr.Bundle.Rootfs, scriptPath)
	if err != nil {
		return nil, fmt.Errorf("%s: python handler: %w", runtimeName, err)
	}

	var stdout bytes.Buffer
	vm := pylite.NewVM(&stdout)
	vm.MaxSteps = DefaultMaxGuestSteps
	exitCode := uint32(0)
	if _, err := vm.RunSource(src); err != nil {
		// A guest error is a non-zero exit, not a runtime failure.
		exitCode = 1
		fmt.Fprintf(&stdout, "%v\n", err)
	}

	proc, err := node.Spawn(fmt.Sprintf("%s-python[%s]", runtimeName, id), cgPath)
	if err != nil {
		return nil, err
	}
	if err := proc.MapPrivate(PythonProfile.PrivateBytes + vm.HeapBytes); err != nil {
		proc.Exit()
		return nil, err
	}
	proc.MapShared(PythonProfile.SharedLibName, PythonProfile.SharedLibBytes)
	procs[id] = proc

	execTime := time.Duration(float64(vm.Steps) * PythonProfile.NsPerStep)
	return &oci.StartReport{
		Cost: oci.StartCost{
			FixedDelay: PythonProfile.FixedDelay,
			CPUWork:    PythonProfile.CPUWork + execTime,
		},
		Pid:          proc.PID,
		ExitCode:     exitCode,
		Stdout:       stdout.String(),
		Instructions: vm.Steps,
		Handler:      "native:pylite",
	}, nil
}

func readScript(fsys *vfs.FS, p string) (string, error) {
	b, err := fsys.ReadFile(p)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
