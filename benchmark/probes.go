package main

import (
	"fmt"
	"io"
	"time"

	"wasmcontainers/internal/bench"
	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/containerd"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/pylite"
	"wasmcontainers/internal/runtimes"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/wat"
	wl "wasmcontainers/internal/workloads"
)

// A probe times one public call of one layer that no request ladder isolates.
// fn does its own untimed set-up and returns the duration of the call alone;
// sample repeats it for about budget and keeps the median.
func sample(budget time.Duration, fn func() (time.Duration, error)) (float64, error) {
	const minRuns, maxRuns = 5, 2000
	var ds []float64
	start := time.Now()
	for len(ds) < minRuns || (time.Since(start) < budget && len(ds) < maxRuns) {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return median(ds), nil
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// prober runs the probes and records their metrics and output checks.
type prober struct {
	r      *workloadResult
	sc     *script
	budget time.Duration
	n      int // fresh-variant counter
}

func (p *prober) run(metric string, div float64, fn func() (time.Duration, error)) {
	ns, err := sample(p.budget, fn)
	if err != nil {
		p.r.check("probe:"+metric, false, "%v", err)
		return
	}
	p.r.set(metric, ns/div)
}

func (p *prober) freshVariant() string {
	p.n++
	return p.sc.variant('p', p.n)
}

const (
	perNs = 1
	perUs = 1e3
)

// compileChain probes wat, wasm, cache and exec on a handler variant: the
// cold-deploy path, call by call.
func (p *prober) compileChain() error {
	name := p.freshVariant()
	src := variantSource(name)
	m, err := wl.Module(name)
	if err != nil {
		return err
	}
	bin := wasm.Encode(m)
	size := float64(len(bin))

	p.run("wat.compile_us", perUs, func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = wat.Compile(src) })
		return d, err
	})
	p.run("cache.load_miss_us", perUs, func() (time.Duration, error) {
		c := cache.New(engine.DefaultModuleCacheBytes)
		var err error
		d := timed(func() { _, err = c.Load(bin) })
		return d, err
	})
	hit := cache.New(engine.DefaultModuleCacheBytes)
	if _, err := hit.Load(bin); err != nil {
		return err
	}
	p.run("cache.load_hit_ns", perNs, func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = hit.Load(bin) })
		return d, err
	})
	if st := hit.Stats(); st.Misses != 1 || st.Hits < 5 {
		p.r.check("cache-hit-counts", false, "one binary loaded repeatedly: %d misses, %d hits", st.Misses, st.Hits)
	} else {
		p.r.check("cache-hit-counts", true, "")
	}
	p.run("wasm.encode_us", perUs, func() (time.Duration, error) {
		return timed(func() { wasm.Encode(m) }), nil
	})
	p.run("wasm.decode_ns_per_byte", size, func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = wasm.Decode(bin) })
		return d, err
	})
	dm, err := wasm.Decode(bin)
	if err != nil {
		return err
	}
	p.run("wasm.validate_ns_per_byte", size, func() (time.Duration, error) {
		var err error
		d := timed(func() { err = wasm.Validate(dm) })
		return d, err
	})
	p.run("exec.precompile_us", perUs, func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = exec.Precompile(dm) })
		return d, err
	})
	p.run("exec.tier1_lower_us", perUs, func() (time.Duration, error) {
		mc, err := exec.Precompile(dm)
		if err != nil {
			return 0, err
		}
		lowered := false
		d := timed(func() { _, lowered = mc.EnsureTier1() })
		if !lowered {
			return 0, fmt.Errorf("EnsureTier1 on fresh code did not lower")
		}
		return d, nil
	})
	mc, err := exec.Precompile(dm)
	if err != nil {
		return err
	}
	p.run("exec.instantiate_us", perUs, func() (time.Duration, error) {
		store := exec.NewStore(exec.Config{})
		var err error
		d := timed(func() { _, err = store.InstantiateCompiled(mc, "") })
		return d, err
	})
	return nil
}

// instance compiles a named workload under the given tier mode and
// instantiates it with a baseline attached, exec only.
func execInstance(module string, mode exec.TierMode) (*exec.Instance, error) {
	m, err := wl.Module(module)
	if err != nil {
		return nil, err
	}
	mc, err := exec.Precompile(m)
	if err != nil {
		return nil, err
	}
	mc.SetTierPolicy(exec.TierPolicy{Mode: mode})
	if mode == exec.TierModeEager {
		mc.EnsureTier1()
	}
	inst, err := exec.NewStore(exec.Config{}).InstantiateCompiled(mc, "")
	if err != nil {
		return nil, err
	}
	if mem := inst.Memory(); mem != nil && mc.EnsureBaseline(mem) == nil {
		mem.CaptureBaseline()
	}
	return inst, nil
}

// interpreter probes exec's two tiers on count_primes, and grow_touch and
// the dirty-page reset on the two memory shapes the workloads have. The
// guest's answers are checked against values computed here.
func (p *prober) interpreter() error {
	compute, _ := workloadByName("guest-compute")
	churn, _ := workloadByName("guest-churn")
	limit := compute.Arg
	want := int32(sievePrimes(int(limit)))
	var instrs [2]uint64
	sieveOK := true
	for tier, mode := range []exec.TierMode{exec.TierModeOff, exec.TierModeEager} {
		inst, err := execInstance("cpu-bound", mode)
		if err != nil {
			return err
		}
		store := inst.Store()
		metric := fmt.Sprintf("exec.tier%d_ns_per_instr", tier)
		var perCall uint64
		ns, err := sample(p.budget, func() (time.Duration, error) {
			before := store.InstructionCount()
			var vals []exec.Value
			var err error
			d := timed(func() { vals, err = inst.Call("count_primes", exec.I32(limit)) })
			perCall = store.InstructionCount() - before
			if err == nil && (len(vals) != 1 || exec.AsI32(vals[0]) != want) {
				err = fmt.Errorf("count_primes(%d) = %v at tier %d, a Go sieve counts %d", limit, vals, tier, want)
			}
			if err == nil && store.LastInvokeTier() != tier {
				err = fmt.Errorf("count_primes ran at tier %d, want %d", store.LastInvokeTier(), tier)
			}
			return d, err
		})
		if err != nil {
			p.r.check("probe:"+metric, false, "%v", err)
			sieveOK = false
			continue
		}
		instrs[tier] = perCall
		p.r.set(metric, ns/float64(perCall))
	}
	p.r.check("count_primes==sieve", sieveOK, "see the probe failures above")
	p.r.check("tiers-retire-same-instructions", instrs[0] == instrs[1], "tier 0 retired %d, tier 1 %d", instrs[0], instrs[1])

	grow, err := execInstance("memory-bound", exec.TierModeHotness)
	if err != nil {
		return err
	}
	growReset, err := p.callAndReset(grow, "grow_touch", churn.Arg, churn.Arg+1, "exec.grow_touch_us")
	if err != nil {
		p.r.check("grow_touch==pages+1,reset", false, "%v", err)
	} else {
		p.r.check("grow_touch==pages+1,reset", true, "")
		p.r.set("exec.reset_ns_per_page.grow", growReset)
	}
	handle, err := execInstance("request-handler", exec.TierModeHotness)
	if err != nil {
		return err
	}
	handleReset, err := p.callAndReset(handle, "handle", 64, 1, "")
	if err != nil {
		p.r.check("handle(64)==1,reset", false, "%v", err)
	} else {
		p.r.check("handle(64)==1,reset", true, "")
		p.r.set("exec.reset_ns_per_page.handle", handleReset)
	}
	return nil
}

// callAndReset times export(arg) and the ResetToBaseline after it, checking
// the return value and that the reset leaves the baseline's page count and no
// dirty page. It returns reset ns per page the call had dirtied.
func (p *prober) callAndReset(inst *exec.Instance, export string, arg, want int32, callMetric string) (float64, error) {
	mem := inst.Memory()
	var callNs, resetNs []float64
	_, err := sample(p.budget, func() (time.Duration, error) {
		var vals []exec.Value
		var err error
		call := timed(func() { vals, err = inst.Call(export, exec.I32(arg)) })
		if err != nil {
			return 0, err
		}
		if len(vals) != 1 || exec.AsI32(vals[0]) != want {
			return 0, fmt.Errorf("%s(%d) = %v, want %d", export, arg, vals, want)
		}
		dirty := mem.DirtyPages()
		reset := timed(func() { mem.ResetToBaseline() })
		if mem.Pages() != mem.Baseline().Pages() || mem.DirtyPages() != 0 || dirty == 0 {
			return 0, fmt.Errorf("%s(%d) dirtied %d pages; after reset %d pages (baseline %d), %d dirty",
				export, arg, dirty, mem.Pages(), mem.Baseline().Pages(), mem.DirtyPages())
		}
		callNs = append(callNs, float64(call))
		resetNs = append(resetNs, float64(reset)/float64(dirty))
		return call, nil
	})
	if err != nil {
		return 0, err
	}
	if callMetric != "" {
		p.r.set(callMetric, median(callNs)/perUs)
	}
	return median(resetNs), nil
}

// substrate probes the layers only density drives: runC, containerd's image
// pull, pylite and the simulated OS.
func (p *prober) substrate() error {
	c, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return err
	}
	node := c.Nodes[0]
	runc := runtimes.NewRunC(node.OS)
	n := 0
	p.run("runtimes.runc_start_us", perUs, func() (time.Duration, error) {
		n++
		ctr, err := node.Runtime.CreateContainer(fmt.Sprintf("runc-%d", n), bench.PythonImage, containerd.HandlerRunc, containerd.ContainerOpts{})
		if err != nil {
			return 0, err
		}
		d := timed(func() {
			if err = runc.Create(ctr.ID, ctr.Bundle); err == nil {
				_, err = runc.Start(ctr.ID)
			}
		})
		return d, err
	})
	p.run("containerd.prepull_us", perUs, func() (time.Duration, error) {
		images, err := containerd.NewImageStore()
		if err != nil {
			return 0, err
		}
		client, err := containerd.NewClient(simos.NewNode(simos.DefaultNodeConfig()), images)
		if err != nil {
			return 0, err
		}
		d := timed(func() { err = client.PrePull(bench.WasmImage) })
		return d, err
	})
	p.run("pylite.run_us", perUs, func() (time.Duration, error) {
		vm := pylite.NewVM(io.Discard)
		var err error
		d := timed(func() { _, err = vm.RunSource(wl.MinimalServicePy) })
		return d, err
	})
	osNode := simos.NewNode(simos.DefaultNodeConfig())
	p.run("simos.proc_cycle_ns", perNs, func() (time.Duration, error) {
		var err error
		d := timed(func() {
			var proc *simos.Process
			if proc, err = osNode.Spawn("probe", "/probe"); err != nil {
				return
			}
			if err = proc.MapPrivate(1 << 20); err != nil {
				return
			}
			proc.MapShared("probe-lib", 1<<20)
			proc.Exit()
		})
		return d, err
	})
	return nil
}

// clusterServing probes cluster.Serving, which is not on the daemon's request
// path today: recorded so the change that puts it there has a before.
func (p *prober) clusterServing() error {
	w := workloads[0]
	s, err := cluster.New(cluster.Config{
		Nodes: 1, Profile: engine.WAMR, PoolSize: poolSize, Dispatcher: dispatcherConfig(w.functionConfig()),
	})
	if err != nil {
		return err
	}
	submit := func(name string) error {
		var res serve.RequestResult
		if err := s.Submit(name, 0, func(r serve.RequestResult) { res = r }); err != nil {
			return err
		}
		s.Run()
		if res.Err != nil || !res.Admitted {
			return fmt.Errorf("cluster.Serving: result %+v", res)
		}
		return nil
	}
	var last string
	p.run("cluster.place_us", perUs, func() (time.Duration, error) {
		last = p.freshVariant()
		bin, err := wl.Binary(last)
		if err != nil {
			return 0, err
		}
		d := timed(func() {
			if err = s.Deploy(last, bin); err == nil {
				err = submit(last) // placement is lazy: the first request places
			}
		})
		return d, err
	})
	p.run("cluster.submit_ns", perNs, func() (time.Duration, error) {
		var err error
		d := timed(func() { err = submit(last) })
		return d, err
	})
	return nil
}
