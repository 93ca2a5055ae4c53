package main

import (
	"io"
	"time"

	"wasmcontainers/internal/gateway"
)

// A metricSpec names one reported number. Bound is the share of the parent's
// value by which an end-to-end metric may worsen before -compare (and the
// driver reading BENCHMARK.json) calls it a regression; per-layer metrics
// carry no bound. Exact marks counts that must repeat digit for digit.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them (the contract in BENCHMARK.json);
// README.md says what each means on density, which has no HTTP.
//
// The three timing bounds are the contract's ceiling, not a choice: on the
// 2-vCPU sandbox the machine's speed drifts, and over four ten-seed batches of
// one commit the batch medians moved by up to 24% on lat_p50_us, 21% on
// cpu_us_per_op and 23% on setup_s. README.md has the calibration tables.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "heap_kib_per_instance", Unit: "KiB", Better: "lower", Bound: 0.03},
}

// demoted were planned as end-to-end metrics and lost their bound in noise
// calibration: two batches of one commit differed by more than any bound the
// contract allows (ops_per_s: 30% on density; lat_p99_us: 32% spread on
// guest-churn). A timed run still measures and prints them and -compare still
// shows them; a traced run reports them, from its untraced reference ops, as
// per-layer metrics.
var demoted = []metricSpec{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
}

// failRatioSlack is the absolute rise in fail_ratio -compare tolerates.
const failRatioSlack = 0.001

// perLayer is what the traced run reports: one layer's cost, measured from
// outside by timing calls into its public functions. Layer = package name.
var perLayer = []metricSpec{
	{Name: "gateway.transport_us", Unit: "us", Better: "lower"},
	{Name: "gateway.handler_us", Unit: "us", Better: "lower"},
	{Name: "gateway.bridge_hop_us", Unit: "us", Better: "lower"},
	{Name: "gateway.add_function_us", Unit: "us", Better: "lower"},
	{Name: "gateway.refused", Unit: "count", Better: "lower"},
	{Name: "serve.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.pool_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.new_pool_us", Unit: "us", Better: "lower"},
	{Name: "serve.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "engine.invoke_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.compile_miss_us", Unit: "us", Better: "lower"},
	{Name: "engine.instantiate_first_us", Unit: "us", Better: "lower"},
	{Name: "engine.instantiate_cached_us", Unit: "us", Better: "lower"},
	{Name: "engine.run_us", Unit: "us", Better: "lower"},
	{Name: "cache.load_miss_us", Unit: "us", Better: "lower"},
	{Name: "cache.load_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "wat.compile_us", Unit: "us", Better: "lower"},
	{Name: "wasm.encode_us", Unit: "us", Better: "lower"},
	{Name: "wasm.decode_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "wasm.validate_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "exec.precompile_us", Unit: "us", Better: "lower"},
	{Name: "exec.tier1_lower_us", Unit: "us", Better: "lower"},
	{Name: "exec.instantiate_us", Unit: "us", Better: "lower"},
	{Name: "exec.tier0_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "exec.tier1_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "exec.grow_touch_us", Unit: "us", Better: "lower"},
	{Name: "exec.reset_ns_per_page.grow", Unit: "ns", Better: "lower"},
	{Name: "exec.reset_ns_per_page.handle", Unit: "ns", Better: "lower"},
	{Name: "exec.instr_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.dirty_pages_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "k8s.deploy_us_per_pod", Unit: "us", Better: "lower"},
	{Name: "k8s.run_us_per_pod", Unit: "us", Better: "lower"},
	{Name: "des.events_per_pod", Unit: "count", Better: "lower"},
	{Name: "des.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cri.start_us", Unit: "us", Better: "lower"},
	{Name: "containerd.task_start_us", Unit: "us", Better: "lower"},
	{Name: "containerd.prepull_us", Unit: "us", Better: "lower"},
	{Name: "core.start_us", Unit: "us", Better: "lower"},
	{Name: "runtimes.runc_start_us", Unit: "us", Better: "lower"},
	{Name: "pylite.run_us", Unit: "us", Better: "lower"},
	{Name: "simos.proc_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "k8s.virt_cgroup_mib_per_ctr", Unit: "MiB", Better: "lower", Exact: true},
	{Name: "virt_mib_per_ctr", Unit: "MiB", Better: "lower", Exact: true},
	{Name: "virt_startup_s", Unit: "sim-s", Better: "lower", Exact: true},
	{Name: "cluster.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.place_us", Unit: "us", Better: "lower"},
	{Name: "obs.scrape_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.exec_share_pct", Unit: "%", Better: "lower"},
	{Name: "trace.compile_chain_share_pct", Unit: "%", Better: "higher"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
}

// A workload is one set of inputs. The four HTTP workloads run the server in
// a child process; density runs in the parent with no HTTP.
type workload struct {
	Name string
	Why  string
	// Guest call behind every request (HTTP workloads).
	Module string
	Export string
	Arg    int32
	// Cold: every request names a never-seen handler variant.
	Cold bool
	// Density: the paper's pods-per-node grid, no server.
	Density bool
	// Warmup is the number of requests sent before the window opens.
	Warmup int
}

const (
	poolSize       = 4
	maxConcurrency = 4
	// coldRound is how many deploys one cold-deploy child absorbs before it
	// is replaced, so live heap per instance is read on a server of fixed age.
	coldRound = 512
)

var workloads = []workload{
	{
		Name:   "warm-steady",
		Why:    "the guest retires 9k instructions (~12 us), so transport, gateway, bridge and serve are over 90% of p50: request-path changes show here, interpreter changes should not",
		Module: "request-handler", Export: "handle", Arg: 64, Warmup: 2000,
	},
	{
		Name:   "guest-compute",
		Why:    "3.1M instructions (~4.5 ms at tier 1) per request, nine tenths of p50: exec tier-0/tier-1 and fusion changes show here and nowhere else",
		Module: "cpu-bound", Export: "count_primes", Arg: 12000, Warmup: 50,
	},
	{
		Name:   "guest-churn",
		Why:    "each request grows 63 pages (4 MiB) and dirties them all in under 1k instructions, then Pool.Release shrinks back: memory.grow, dirty tracking and reset show here, arithmetic speed-ups should not",
		Module: "memory-bound", Export: "grow_touch", Arg: 63, Warmup: 500,
	},
	{
		Name:   "cold-deploy",
		Why:    "every POST names a never-seen module, so each op pays wat, encode, decode, validate, precompile, pool fill and registration; round-end heap gives real KiB per warm instance",
		Module: "request-handler", Export: "handle", Arg: 64, Cold: true, Warmup: 8,
	},
	{
		Name:    "density",
		Why:     "the paper's own experiment (every runtime x 10/100/400 pods) and the only driver of k8s, cri, containerd, core, runtimes, oci, simos, des, wasi and pylite; carries the virtual headline",
		Density: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// functionConfig is the served function of an HTTP workload: the daemon's
// default shape (wamr, pool 4, concurrency 4) with the workload's guest call.
func (w workload) functionConfig() gateway.FunctionConfig {
	fc := gateway.DefaultFunction()
	fc.Module, fc.Export, fc.Arg = w.Module, w.Export, w.Arg
	fc.PoolSize, fc.MaxConcurrency = poolSize, maxConcurrency
	return fc
}

// gatewayConfig is what the serve child (and the in-process traced ladder)
// hands gateway.New: continuumd's defaults except Dilation 0, so wall time is
// our Go code and not simulated sleeps.
func (w workload) gatewayConfig() gateway.Config {
	fc := w.functionConfig()
	cfg := gateway.Config{
		Functions:      []gateway.FunctionConfig{fc},
		Bridge:         gateway.BridgeConfig{Dilation: 0, SubmitBuffer: 256},
		ClusterNodes:   1,
		AccessLog:      io.Discard, // the line is still formatted, as in the daemon
		SampleInterval: time.Second,
	}
	if w.Cold {
		cfg.LazyTemplate = &fc
	}
	return cfg
}
