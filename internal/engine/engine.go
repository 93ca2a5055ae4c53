// Package engine models the four WebAssembly engines the paper evaluates —
// WAMR, Wasmtime, Wasmer, and WasmEdge — behind one interface. Semantics are
// identical for all four (they share this repository's wasm interpreter, so
// guest programs really execute); what differs between engines is what the
// paper measures: the memory-layout profile (interpreter state vs JIT code
// caches vs pooling allocators, shared-library vs per-process footprint) and
// the startup-cost profile (init latency, CPU work, and containerd
// task-service serialization for shim-hosted engines).
//
// Profile constants are calibrated so that the full simulated stack
// reproduces the relative results of the paper's figures; the calibration is
// documented in DESIGN.md and the resulting numbers in EXPERIMENTS.md.
package engine

import (
	"encoding/hex"
	"fmt"
	"time"

	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/wasm/exec"
)

// Mode is the execution strategy of an engine build.
type Mode string

// Engine execution modes.
const (
	ModeInterpreter Mode = "interpreter"
	ModeJIT         Mode = "jit"
	ModeAOT         Mode = "aot"
)

const (
	kib = int64(1024)
	mib = 1024 * kib
)

// Profile describes one engine's resource behaviour.
type Profile struct {
	Name    string
	Version string
	Mode    Mode

	// Memory model (bytes).

	// EmbedPrivateBytes is the private anonymous memory of a container
	// process that embeds this engine inside crun (runtime heap, instance
	// pools, JIT code cache), excluding the guest's real linear memory,
	// which is measured from execution.
	EmbedPrivateBytes int64
	// ShimPrivateBytes is the private memory of the container-side process
	// when the engine runs under its containerd runwasi shim.
	ShimPrivateBytes int64
	// ShimSystemBytes is shim-side memory living outside the pod cgroup
	// (visible to `free`, invisible to the metrics server).
	ShimSystemBytes int64
	// SharedLibName/SharedLibBytes model the dlopen'd engine library whose
	// resident text is shared across every crun container on the node: the
	// mechanism behind the paper's "dynamic library loading" design point.
	SharedLibName  string
	SharedLibBytes int64
	// ShimBinaryName/ShimBinaryBytes model the shim executable's shared text.
	ShimBinaryName  string
	ShimBinaryBytes int64

	// Timing model.

	// EmbedFixedDelay is non-CPU latency on the crun path (API waits, IPC).
	EmbedFixedDelay time.Duration
	// EmbedCPUWork is CPU time consumed starting one container on the crun
	// path (engine init, module load/compile, instantiate, app warm-up).
	EmbedCPUWork time.Duration
	// ShimFixedDelay / ShimCPUWork are the same for the runwasi path.
	ShimFixedDelay time.Duration
	ShimCPUWork    time.Duration
	// ShimTaskLockHold is how long a runwasi container start holds the
	// containerd task-service lock (shim spawn + TTRPC handshake happen
	// inside it); this serialization is what degrades shim startup at high
	// density in Figure 9.
	ShimTaskLockHold time.Duration
	// NsPerInstruction converts really-executed guest instructions into
	// simulated CPU time (interpreters are slower per instruction than JIT).
	NsPerInstruction float64
	// Tier1Speedup divides NsPerInstruction for invokes served by the tier-1
	// direct-threaded backend after hotness tier-up. Interpreters gain the
	// full dispatch win; JIT/AOT engines already execute lowered code, so
	// their tier-up models only the residual fast-dispatch improvements.
	Tier1Speedup float64

	// Serving model (warm instance pools inside a live gateway process).

	// WarmInstanceBytes is the engine-side state one pre-instantiated,
	// pooled instance costs beyond the guest's real linear memory (instance
	// structs, per-instance JIT metadata, pooling-allocator slot overhead).
	WarmInstanceBytes int64
	// WarmInvokeOverhead is the per-request cost of dispatching into an
	// already-instantiated instance (trampoline entry, argument marshalling).
	WarmInvokeOverhead time.Duration
}

// The four engine profiles with versions from the paper's Table I.
var (
	// WAMR is the WebAssembly Micro Runtime: tiny interpreter, minimal
	// per-instance state, shipped as a small shared library.
	WAMR = Profile{
		Name: "wamr", Version: "2.1.0", Mode: ModeInterpreter,
		EmbedPrivateBytes:  3727 * kib,
		ShimPrivateBytes:   4096 * kib, // no official runwasi shim; used by ablations only
		SharedLibName:      "libiwasm.so",
		SharedLibBytes:     1536 * kib,
		EmbedFixedDelay:    70 * time.Millisecond,
		EmbedCPUWork:       2670 * time.Millisecond,
		ShimFixedDelay:     200 * time.Millisecond,
		ShimCPUWork:        600 * time.Millisecond,
		ShimTaskLockHold:   200 * time.Millisecond,
		NsPerInstruction:   160,
		Tier1Speedup:       2.5,
		WarmInstanceBytes:  160 * kib,
		WarmInvokeOverhead: 12 * time.Microsecond,
	}

	// Wasmtime: Cranelift JIT, large compiled artifacts and code caches,
	// big shared library when embedded.
	Wasmtime = Profile{
		Name: "wasmtime", Version: "23.0.1", Mode: ModeJIT,
		EmbedPrivateBytes:  10894 * kib,
		ShimPrivateBytes:   4823 * kib,
		ShimSystemBytes:    82 * kib,
		SharedLibName:      "libwasmtime.so",
		SharedLibBytes:     24 * mib,
		ShimBinaryName:     "containerd-shim-wasmtime-v1",
		ShimBinaryBytes:    4 * mib,
		EmbedFixedDelay:    380 * time.Millisecond,
		EmbedCPUWork:       2430 * time.Millisecond,
		ShimFixedDelay:     180 * time.Millisecond,
		ShimCPUWork:        500 * time.Millisecond,
		ShimTaskLockHold:   222 * time.Millisecond,
		NsPerInstruction:   6,
		Tier1Speedup:       1.15,
		WarmInstanceBytes:  1792 * kib,
		WarmInvokeOverhead: 3 * time.Microsecond,
	}

	// Wasmer: JIT with artifact caching; the heaviest memory footprint in
	// both embedded and shim form.
	Wasmer = Profile{
		Name: "wasmer", Version: "4.3.5", Mode: ModeJIT,
		EmbedPrivateBytes:  11918 * kib,
		ShimPrivateBytes:   17244 * kib,
		ShimSystemBytes:    6246 * kib,
		SharedLibName:      "libwasmer.so",
		SharedLibBytes:     20 * mib,
		ShimBinaryName:     "containerd-shim-wasmer-v1",
		ShimBinaryBytes:    5 * mib,
		EmbedFixedDelay:    360 * time.Millisecond,
		EmbedCPUWork:       2570 * time.Millisecond,
		ShimFixedDelay:     1000 * time.Millisecond,
		ShimCPUWork:        795 * time.Millisecond,
		ShimTaskLockHold:   270 * time.Millisecond,
		NsPerInstruction:   6,
		Tier1Speedup:       1.15,
		WarmInstanceBytes:  2048 * kib,
		WarmInvokeOverhead: 4 * time.Microsecond,
	}

	// WasmEdge: AOT-capable runtime aimed at cloud-native uses; mid-size
	// footprint, fast shim startup at low density.
	WasmEdge = Profile{
		Name: "wasmedge", Version: "0.14.0", Mode: ModeAOT,
		EmbedPrivateBytes:  8028 * kib,
		ShimPrivateBytes:   5775 * kib,
		ShimSystemBytes:    205 * kib,
		SharedLibName:      "libwasmedge.so",
		SharedLibBytes:     14 * mib,
		ShimBinaryName:     "containerd-shim-wasmedge-v1",
		ShimBinaryBytes:    4608 * kib,
		EmbedFixedDelay:    360 * time.Millisecond,
		EmbedCPUWork:       2500 * time.Millisecond,
		ShimFixedDelay:     300 * time.Millisecond,
		ShimCPUWork:        616 * time.Millisecond,
		ShimTaskLockHold:   195 * time.Millisecond,
		NsPerInstruction:   9,
		Tier1Speedup:       1.6,
		WarmInstanceBytes:  1024 * kib,
		WarmInvokeOverhead: 6 * time.Microsecond,
	}
)

// Profiles lists all engine profiles in a stable order.
func Profiles() []Profile { return []Profile{WAMR, Wasmtime, Wasmer, WasmEdge} }

// ByName looks up a profile.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// DefaultModuleCacheBytes bounds a compiled-module cache — one per node's
// worth of engines (a gateway server, a serving-cluster node, a containerd
// client), not one per function. Real engines size their artifact caches
// similarly (WAMR's loaded-module table, Wasmtime's on-disk AOT cache); the
// exact figure only matters under heavy multi-tenancy, and eviction +
// recompile keeps it correct regardless.
const DefaultModuleCacheBytes = 256 * mib

// Engine executes WebAssembly modules under a profile.
type Engine struct {
	Profile Profile
	// modCache deduplicates Compile: N identical binaries decode, validate,
	// and lower once, and share one compiled artifact.
	modCache *cache.Cache
	// faults is the optional fault injector consulted at the engine
	// boundaries (Instantiate, Invoke, ColdStartCost); nil (the default)
	// means no injection and costs one nil check per boundary.
	faults *faults.Injector

	// tierPolicy is installed on every compiled module. The default is
	// exec.DefaultTierPolicy (hotness-triggered tier-up); ablations switch it
	// to off or eager via SetTierPolicy before compiling.
	tierPolicy exec.TierPolicy

	// Telemetry handles, pre-resolved by SetObserver and nil when disabled:
	// the invoke hot path then pays one nil check per handle and zero
	// allocations (BenchmarkInvokeTelemetryDisabled enforces this).
	obs             *obs.Telemetry
	obsInstantiates *obs.Counter
	obsInstWallNs   *obs.Histogram
	obsInvokes      *obs.Counter
	obsInvokeInstr  *obs.Histogram
	obsTraps        *obs.Counter
	obsTierUps      *obs.Counter
	obsInvokeNsT0   *obs.Histogram
	obsInvokeNsT1   *obs.Histogram
	obsTracer       *obs.Tracer
}

// SetObserver wires telemetry into the engine and its module cache. Metric
// names carry an engine label so cache-sharing engines stay separable in the
// Prometheus dump. Pass nil to disable (the default).
func (e *Engine) SetObserver(t *obs.Telemetry) {
	e.obs = t
	label := func(name string) string { return obs.Labeled(name, "engine", e.Profile.Name) }
	e.obsInstantiates = t.Counter(label("engine_instantiates_total"))
	e.obsInstWallNs = t.Histogram(label("engine_instantiate_wall_ns"))
	e.obsInvokes = t.Counter(label("engine_invokes_total"))
	e.obsInvokeInstr = t.Histogram(label("engine_invoke_instructions"))
	e.obsTraps = t.Counter(label("engine_traps_total"))
	e.obsTierUps = t.Counter(label("tierup_total"))
	e.obsInvokeNsT0 = t.Histogram(obs.Labeled(label("engine_invoke_sim_ns"), "tier", "0"))
	e.obsInvokeNsT1 = t.Histogram(obs.Labeled(label("engine_invoke_sim_ns"), "tier", "1"))
	e.obsTracer = t.Tracer()
	e.modCache.SetObserver(t)
}

// SetFaultInjector arms (or, with nil, disarms) deterministic fault
// injection at the engine's serving boundaries: Instantiate may fail with
// faults.ErrInstantiate, Invoke may trap mid-execution with faults.ErrTrap
// (billing the partial execution as simulated time), and ColdStartCost may
// draw a slow-start multiplier. Arm it after pool pre-warming so only
// request-path work is subjected to faults.
func (e *Engine) SetFaultInjector(in *faults.Injector) { e.faults = in }

// New creates an engine for the profile with its own module cache: for an
// owner that runs one profile (a serving-cluster node, an experiment).
func New(p Profile) *Engine { return NewWithCache(p, cache.New(DefaultModuleCacheBytes)) }

// NewWithCache creates an engine sharing a compiled-module cache with other
// engines — the node-level arrangement, where every profile and container
// runtime on a host resolves module digests against one artifact store. The
// owner of the cache builds one engine per profile and keeps it.
func NewWithCache(p Profile, c *cache.Cache) *Engine {
	if c == nil {
		c = cache.New(DefaultModuleCacheBytes)
	}
	return &Engine{Profile: p, modCache: c, tierPolicy: exec.DefaultTierPolicy()}
}

// SetTierPolicy changes the tier-up policy installed on modules compiled from
// now on (already-compiled modules keep the policy they got). The tiers
// ablation uses it to compare tier-0-only, hotness, and eager lowering.
func (e *Engine) SetTierPolicy(p exec.TierPolicy) { e.tierPolicy = p }

// CacheStats reports the module cache's counters.
func (e *Engine) CacheStats() cache.Stats { return e.modCache.Stats() }

// CompiledModule is a loaded, validated, and lowered module; Compile is its
// only constructor. The Code artifact is typically shared with every other
// holder of the same binary digest.
type CompiledModule struct {
	Module  *wasm.Module
	BinSize int
	// Digest is the content address (SHA-256 of the binary).
	Digest cache.Digest
	// Code holds the precompiled function bodies, shared by reference.
	Code *exec.ModuleCode

	// names are the module's shared-artifact names in SharedArtifacts order.
	names [3]string
	// eng and ent are what the module's tier-up reports to (TierUp): the
	// engine that compiled it and its cache entry.
	eng *Engine
	ent *cache.Entry
}

// SharedArtifact is one node-shared, content-addressed read-only artifact of
// a compiled module, keyed by digest like a shared library: a node maps one
// copy per Name no matter how many pools or container runtimes share the
// module.
type SharedArtifact struct {
	Name  string
	Bytes int64
}

// Indexes into SharedArtifacts, in publication order.
const (
	ArtifactCode = iota
	ArtifactData
	ArtifactTier1
)

// artifactNames is the one spelling of a module's shared-artifact names.
// Everything that maps, charges, or scores these artifacts on a node gets
// them from SharedArtifacts, so the formats live nowhere else. Compile runs
// once per container start, so the three names share one allocation.
func artifactNames(d cache.Digest) [3]string {
	const code, data, t1 = "wasm-code:", "wasm-data:", "wasm-t1:"
	var id [16]byte
	hex.Encode(id[:], d[:8])
	s := code + string(id[:]) + data + string(id[:]) + t1 + string(id[:])
	i, j := len(code)+len(id), len(code)+len(data)+2*len(id)
	return [3]string{ArtifactCode: s[:i], ArtifactData: s[i:j], ArtifactTier1: s[j:]}
}

// SharedArtifacts is the one enumeration of what a compiled module shares
// per node: compiled code, the baseline memory image (captured by the first
// instantiate), and the tier-1 direct-threaded code (lowered at tier-up), in
// that order. Each is write-once — Bytes is 0 until the artifact is published
// and never changes afterwards — so the memory model charges each once per
// node and only the private remainder per instance. Lock-free and
// allocation-free.
func (cm *CompiledModule) SharedArtifacts() [3]SharedArtifact {
	return [3]SharedArtifact{
		ArtifactCode:  {cm.names[ArtifactCode], cm.Code.CodeBytes()},
		ArtifactData:  {cm.names[ArtifactData], cm.Code.BaselineBytes()},
		ArtifactTier1: {cm.names[ArtifactTier1], cm.Code.Tier1Bytes()},
	}
}

// Compile decodes, validates, and lowers a binary module through the
// engine's content-addressed cache: recompiling a binary the engine (or a
// cache-sharing peer) has seen before is a cache hit and costs no work.
// The engine's tier policy is installed on the compiled code, with the
// compiled module as its tier-up listener (TierUp), which adds the tier-1
// artifact to the module's cache charge. Under the eager policy the tier-1
// body is lowered right here rather than on hotness.
func (e *Engine) Compile(bin []byte) (*CompiledModule, error) {
	ent, err := e.modCache.Load(bin)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Profile.Name, err)
	}
	cm := &CompiledModule{
		Module:  ent.Module,
		BinSize: int(ent.BinSize),
		Digest:  ent.Digest,
		Code:    ent.Code,
		names:   artifactNames(ent.Digest),
		eng:     e,
		ent:     ent,
	}
	// The engine's tier policy goes on the code, and the newest compile of a
	// digest is its tier-up listener.
	cm.Code.SetTierPolicy(e.tierPolicy)
	cm.Code.SetTierUpListener(cm)
	if e.tierPolicy.Mode == exec.TierModeEager {
		cm.Code.EnsureTier1()
	}
	return cm, nil
}

// TierUp is the module code's tier-up listener (exec.TierUpListener): it adds
// the tier-1 artifact to the cache entry's charge and reports the tier-up to
// the compiling engine's telemetry.
func (cm *CompiledModule) TierUp(tc *exec.Tier1Code, lowered time.Duration) {
	e := cm.eng
	e.modCache.NoteTier1(cm.ent)
	e.obsTierUps.Inc()
	if e.obsTracer != nil {
		now := e.obsTracer.Now()
		e.obsTracer.Span("tier-up", "engine", 0, now, now,
			obs.Str("engine", e.Profile.Name),
			obs.I64("lowered_funcs", int64(tc.Lowered())),
			obs.I64("tier1_bytes", tc.Bytes()),
			obs.I64("lower_wall_ns", lowered.Nanoseconds()))
	}
}

// RunResult extends the WASI result with engine-derived figures.
type RunResult struct {
	wasi.RunResult
	// GuestMemoryBytes is the real linear-memory size at exit.
	GuestMemoryBytes int64
	// GuestPrivateBytes is the linear memory the run actually dirtied: the
	// copy-on-write private cost, with the clean remainder aliasing the
	// module's shared baseline image.
	GuestPrivateBytes int64
	// SimulatedExecTime converts executed instructions to engine CPU time.
	SimulatedExecTime time.Duration
}

// Run executes a compiled command module under WASI config cfg. Execution is
// real: the module runs on the shared interpreter; the engine profile only
// shapes the derived cost figures.
func (e *Engine) Run(cm *CompiledModule, cfg wasi.Config) (RunResult, error) {
	w := wasi.New(cfg)
	w.SetObserver(e.obs)
	var spanStart int64
	if e.obsTracer != nil {
		spanStart = e.obsTracer.Now()
	}
	res, err := w.RunModule(exec.NewStore(exec.Config{}), cm.Code)
	if err != nil {
		return RunResult{}, fmt.Errorf("%s: %w", e.Profile.Name, err)
	}
	if e.obsTracer != nil {
		e.obsTracer.Span("wasi-run", "engine", 0, spanStart, e.obsTracer.Now(),
			obs.Str("engine", e.Profile.Name),
			obs.I64("instructions", int64(res.Instructions)),
			obs.I64("exit_code", int64(res.ExitCode)))
	}
	return e.annotate(res), nil
}

func (e *Engine) annotate(res wasi.RunResult) RunResult {
	return RunResult{
		RunResult:         res,
		GuestMemoryBytes:  int64(res.MemoryPages) * wasm.PageSize,
		GuestPrivateBytes: int64(res.PrivatePages) * wasm.PageSize,
		SimulatedExecTime: time.Duration(float64(res.Instructions) * e.Profile.NsPerInstruction),
	}
}

// EmbedStartCost returns the (fixed delay, CPU work) of starting one
// container with this engine embedded in crun, including real execution time
// of the guest's startup path.
func (e *Engine) EmbedStartCost(execTime time.Duration) (delay, cpu time.Duration) {
	return e.Profile.EmbedFixedDelay, e.Profile.EmbedCPUWork + execTime
}

// ShimStartCost is the runwasi-path equivalent; lockHold is the containerd
// task-service serialization component.
func (e *Engine) ShimStartCost(execTime time.Duration) (delay, cpu, lockHold time.Duration) {
	return e.Profile.ShimFixedDelay, e.Profile.ShimCPUWork + execTime, e.Profile.ShimTaskLockHold
}

// EmbedFootprint returns the private bytes of a crun container process
// running this engine with the given real guest memory.
func (e *Engine) EmbedFootprint(guestMemoryBytes int64) int64 {
	return e.Profile.EmbedPrivateBytes + guestMemoryBytes
}

// ShimFootprint returns (pod-cgroup private bytes, system-slice bytes) for
// the runwasi path.
func (e *Engine) ShimFootprint(guestMemoryBytes int64) (podBytes, systemBytes int64) {
	return e.Profile.ShimPrivateBytes + guestMemoryBytes, e.Profile.ShimSystemBytes
}

// ColdStartCost is the simulated latency to reach a ready instance inside an
// already-running gateway process: the embed profile's CPU work (engine init,
// module load/compile, instantiate, warm-up) without crun's fixed API delay,
// which a live process does not pay again. internal/serve charges this on
// every dry-pool fallback, so the per-engine startup profiles shape serving
// tail latency exactly as they shape the density experiments. An armed fault
// injector may draw a slow-start multiplier (cold compile cache, page-cache
// miss), stretching this one cold start deterministically.
func (e *Engine) ColdStartCost() time.Duration {
	c := e.Profile.EmbedCPUWork
	if m := e.faults.ColdStartMultiplier(); m > 1 {
		c = time.Duration(float64(c) * m)
	}
	return c
}

// Instance is a live instantiated module held for repeated invocations (the
// serving path). Each Instance owns a private store, so distinct Instances
// may be used from different goroutines; a single Instance must not.
//
// A warm instance is two allocations: the Instance (or the embedder's record
// holding one, see InstantiateInto), which holds its store, the store in
// turn the exec.Instance and its linear memory (the memory aliasing the
// module's baseline image); and the function index space. An Instance holds
// pointers into itself, so it must not be copied.
type Instance struct {
	e     *Engine
	inst  *exec.Instance
	store exec.Store
}

// Instantiate allocates a fresh store and instantiates cm in it — the same
// real path a container start takes (import resolution, memory allocation,
// data segments, start function). Used for both pool pre-warming and the
// dispatcher's cold-start fallback.
func (e *Engine) Instantiate(cm *CompiledModule) (*Instance, error) {
	i := new(Instance)
	if err := e.InstantiateInto(i, cm); err != nil {
		return nil, err
	}
	return i, nil
}

// InstantiateInto is Instantiate into an Instance the caller keeps inside a
// record of its own (serve.WarmInstance), so the two share one allocation.
// dst is initialised in place; on error it is left zero.
func (e *Engine) InstantiateInto(dst *Instance, cm *CompiledModule) error {
	*dst = Instance{}
	if err := e.faults.InstantiateError(); err != nil {
		return fmt.Errorf("%s: %w", e.Profile.Name, err)
	}
	var spanStart int64
	var wallStart time.Time
	if e.obsTracer != nil {
		spanStart = e.obsTracer.Now()
		wallStart = time.Now()
	}
	dst.store.Init(exec.Config{})
	inst, err := dst.store.InstantiateCompiled(cm.Code, "")
	if err != nil {
		*dst = Instance{}
		return fmt.Errorf("%s: %w", e.Profile.Name, err)
	}
	e.obsInstantiates.Inc()
	if e.obsTracer != nil {
		wallNs := time.Since(wallStart).Nanoseconds()
		e.obsInstWallNs.Record(wallNs)
		var pages int64
		if m := inst.Memory(); m != nil {
			pages = int64(m.Size()) / wasm.PageSize
		}
		e.obsTracer.Span("instantiate", "engine", 0, spanStart, e.obsTracer.Now(),
			obs.Str("engine", e.Profile.Name),
			obs.I64("wall_ns", wallNs),
			obs.I64("memory_pages", pages))
	}
	// Copy-on-write setup: the first instance of a digest donates its
	// post-instantiation memory as the shared baseline image; later instances
	// are instantiated aliasing it (or attach after a byte-for-byte check) and
	// are charged only dirty pages. A memory that differs from the shared
	// image — a start function wrote something host-dependent — captures a
	// private baseline so ResetToBaseline works uniformly.
	if m := inst.Memory(); m != nil && cm.Code.EnsureBaseline(m) == nil {
		m.CaptureBaseline()
	}
	dst.e, dst.inst = e, inst
	return nil
}

// InvokeResult carries one invocation's outcome and derived cost figures.
type InvokeResult struct {
	Values       []exec.Value
	Instructions uint64
	// Tier is the execution tier that served this invoke (0 = switch
	// interpreter, 1 = direct-threaded code after tier-up).
	Tier              int
	SimulatedExecTime time.Duration
	GuestMemoryBytes  int64
}

// Invoke calls an exported function. Execution is real; the profile converts
// the executed instruction count into simulated CPU time. On error — a real
// guest trap or an injected one — the result still carries the instructions
// that executed before the trap and their simulated time, so callers account
// the concurrency and latency a failed request actually consumed.
func (i *Instance) Invoke(export string, args ...exec.Value) (InvokeResult, error) {
	before := i.store.InstructionCount()
	vals, err := i.inst.Call(export, args...)
	i.e.obsInvokes.Inc()
	n := i.store.InstructionCount() - before
	tier := i.store.LastInvokeTier()
	if err != nil {
		i.e.obsTraps.Inc()
		return i.partialResult(n, tier), fmt.Errorf("%s: %w", i.e.Profile.Name, err)
	}
	if frac, trap := i.e.faults.TrapFraction(); trap {
		// Injected mid-invoke trap: the guest "executed" frac of its work
		// before trapping. The real run completed (and was reset-safe), but
		// the caller sees a trap that consumed partial simulated time.
		i.e.obsTraps.Inc()
		return i.partialResult(uint64(float64(n)*frac), tier),
			fmt.Errorf("%s: %w", i.e.Profile.Name, faults.ErrTrap)
	}
	i.e.obsInvokeInstr.Record(int64(n))
	simT := i.simTime(n, tier)
	if tier == 1 {
		i.e.obsInvokeNsT1.Record(simT.Nanoseconds())
	} else {
		i.e.obsInvokeNsT0.Record(simT.Nanoseconds())
	}
	return InvokeResult{
		Values:            vals,
		Instructions:      n,
		Tier:              tier,
		SimulatedExecTime: simT,
		GuestMemoryBytes:  i.GuestMemoryBytes(),
	}, nil
}

// simTime prices n executed instructions for the tier that executed them:
// instruction counts are tier-invariant by construction (the differential
// tests enforce it), so tier-1's real speedup shows up purely as a cheaper
// per-instruction rate.
func (i *Instance) simTime(n uint64, tier int) time.Duration {
	ns := i.e.Profile.NsPerInstruction
	if tier == 1 {
		if sp := i.e.Profile.Tier1Speedup; sp > 1 {
			ns /= sp
		}
	}
	return time.Duration(float64(n) * ns)
}

// partialResult bills n instructions of a trapped invoke (no return values).
func (i *Instance) partialResult(n uint64, tier int) InvokeResult {
	return InvokeResult{
		Instructions:      n,
		Tier:              tier,
		SimulatedExecTime: i.simTime(n, tier),
		GuestMemoryBytes:  i.GuestMemoryBytes(),
	}
}

// GuestMemoryBytes is the instance's current real linear-memory size.
func (i *Instance) GuestMemoryBytes() int64 {
	if m := i.inst.Memory(); m != nil {
		return int64(m.Size())
	}
	return 0
}

// PrivateMemoryBytes is the instance's copy-on-write private linear-memory
// cost: the pages it has dirtied since instantiation or the last reset. The
// baseline image the clean pages alias is accounted separately, once per
// module (CompiledModule.SharedArtifacts).
func (i *Instance) PrivateMemoryBytes() int64 {
	if m := i.inst.Memory(); m != nil {
		return m.PrivateBytes()
	}
	return 0
}

// FootprintBytes is what one live instance costs in the engine's memory
// model: per-instance runtime state plus the private (dirty) linear-memory
// pages. A freshly instantiated or freshly reset instance costs exactly
// WarmInstanceBytes — its whole memory aliases the shared baseline. The
// model and the process agree on the idle case (an aliased exec.Memory holds
// no buffer); a written instance's real buffer is whole-memory-sized while
// the model charges its dirty pages, as an mmap'd CoW mapping would.
func (i *Instance) FootprintBytes() int64 {
	return i.e.Profile.WarmInstanceBytes + i.PrivateMemoryBytes()
}

// ResetToBaseline rewinds linear memory to the module's baseline image
// (releasing pages grown during the request) and returns how many baseline
// pages were rewound — copied back, or dropped with the private buffer when
// all of them were dirty. This is the warm pool's between-requests reset:
// cost scales with pages touched, not memory size.
func (i *Instance) ResetToBaseline() int {
	if m := i.inst.Memory(); m != nil {
		if n := m.ResetToBaseline(); n >= 0 {
			return n
		}
	}
	return 0
}
