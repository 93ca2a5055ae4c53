package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wasmcontainers/internal/bench"
	"wasmcontainers/internal/containerd"
	"wasmcontainers/internal/core"
	"wasmcontainers/internal/cri"
	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/gateway"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasi"
	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/wat"
	wl "wasmcontainers/internal/workloads"
)

// Layers, named after the packages whose self time they collect. transport
// is everything between the client's Post and the handler: net/http on both
// sides and the loopback socket.
const (
	layerTransport = "transport"
	layerGateway   = "gateway"
	layerServe     = "serve"
	layerEngine    = "engine"
	layerExec      = "exec"
	layerCache     = "cache"
	layerWasm      = "wasm"
	layerWat       = "wat"
	layerWorkloads = "workloads"
	layerK8s       = "k8s"
	layerCRI       = "cri"
	layerContainrd = "containerd"
	layerCore      = "core"
)

// startGateway builds an in-process gateway and starts its bridge loop: the
// rungs below the socket. The top rung of a request ladder posts to a serve
// child instead, exactly as the timed run does, so that the ladder's self
// times add up to what the timed run measures.
func startGateway(cfg gateway.Config) (*gateway.Server, error) {
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	gw.Start()
	return gw, nil
}

func stopGateway(gw *gateway.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return gw.Shutdown(ctx)
}

// serveHTTP prepares one direct call of the handler, as net/http's server
// would make it; the request and recorder are built here, outside the timing.
func serveHTTP(gw *gateway.Server, module string, payload []byte) func() error {
	req := httptest.NewRequest(http.MethodPost, "/v1/functions/"+module, bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	return func() error {
		gw.ServeHTTP(rec, req)
		return checkReply(rec.Result(), rec.Body.Bytes(), module, len(payload))
	}
}

// remote is the serve child behind a ladder's top rung, and the client that
// posts to it.
type remote struct {
	c       *child
	client  *http.Client
	sent    int
	refused int
}

func startRemote(w workload) (*remote, error) {
	c, err := startChild(w.Name)
	if err != nil {
		return nil, err
	}
	return &remote{c: c, client: newClient()}, nil
}

func (r *remote) post(module string, payload []byte) error {
	r.sent++
	status, err := post(r.client, r.c.base, module, payload)
	if refusal(status) {
		r.refused++
	}
	return err
}

// stop drains the child and checks its books against what was posted.
func (r *remote) stop() error {
	r.client.CloseIdleConnections()
	d, err := r.c.drain()
	if err != nil {
		return err
	}
	if problem, cold := balance(d, r.sent); problem != "" || cold != 0 {
		return fmt.Errorf("ladder child: %s (%d cold starts)", problem, cold)
	}
	return nil
}

// attachPool charges pool memory to a node the way gateway.Function.syncMem
// does, so a private pool pays the same per-release accounting as a served one.
func attachPool(node *k8s.WorkerNode, pool *serve.Pool, name string, tele *obs.Telemetry) (*k8s.WarmPoolAttachment, error) {
	att, err := node.AttachWarmPool(name)
	if err != nil {
		return nil, err
	}
	att.SetObserver(tele)
	pool.SetMemoryListener(func(total int64) {
		var shared int64
		for _, a := range pool.SharedArtifacts() {
			att.SyncShared(a.Name, a.Bytes)
			shared += a.Bytes
		}
		if total < shared {
			total = shared
		}
		att.Sync(total - shared)
	})
	return att, nil
}

func dispatcherConfig(fc gateway.FunctionConfig) serve.DispatcherConfig {
	return serve.DispatcherConfig{
		MaxConcurrency: fc.MaxConcurrency, QueueDepth: fc.QueueDepth, Policy: serve.PolicyQueue,
		QueueDeadline: fc.QueueDeadline, Export: fc.Export, Arg: fc.Arg,
	}
}

// servedPool is a compiled module behind a warm pool, wired like a gateway
// function: own engine, telemetry on, memory charged to a node.
type servedPool struct {
	eng  *engine.Engine
	cm   *engine.CompiledModule
	pool *serve.Pool
	key  string
}

func newServedPool(w workload, node *k8s.WorkerNode, tele *obs.Telemetry, name string) (*servedPool, error) {
	bin, err := wl.Binary(w.Module)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.WAMR)
	eng.SetObserver(tele)
	cm, err := eng.Compile(bin)
	if err != nil {
		return nil, err
	}
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: poolSize})
	if err != nil {
		return nil, err
	}
	pool.SetObserver(tele)
	if _, err := attachPool(node, pool, name, tele); err != nil {
		return nil, err
	}
	return &servedPool{eng: eng, cm: cm, pool: pool, key: fmt.Sprintf("%x", cm.Digest)}, nil
}

// guestExpect is the output check on a guest call: what it must return, and
// how many instructions and dirty pages the first checked call took (every
// later call must repeat them exactly).
type guestExpect struct {
	want   int32
	instr  uint64
	dirty  int
	primed bool
}

func expectedReturn(w workload) int32 {
	switch w.Export {
	case "count_primes":
		return int32(sievePrimes(int(w.Arg)))
	case "grow_touch":
		return w.Arg + 1 // memory.size after growing Arg pages from one
	default:
		return 1 // handle: the request counter of a fresh or correctly reset instance
	}
}

// sievePrimes counts primes below limit with a sieve of Eratosthenes.
func sievePrimes(limit int) int {
	if limit < 2 {
		return 0
	}
	composite := make([]bool, limit)
	n := 0
	for i := 2; i < limit; i++ {
		if composite[i] {
			continue
		}
		n++
		for j := i * i; j < limit; j += i {
			composite[j] = true
		}
	}
	return n
}

// requestLadder is the warm request path of one HTTP workload, one fixture
// per rung so no rung's state leaks into another's.
type requestLadder struct {
	w      workload
	remote *remote
	live   *gateway.Server
	key    string
	router *serve.Router
	sim    *des.Engine
	rkey   string
	pool   *serve.Pool
	inst   *engine.Instance
	xinst  *exec.Instance
	tid    int64
	expect guestExpect
	err    error // first failed output check
}

func newRequestLadder(w workload) (l *requestLadder, err error) {
	l = &requestLadder{w: w, expect: guestExpect{want: expectedReturn(w)}}
	if l.remote, err = startRemote(w); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			l.remote.c.close()
		}
	}()
	live, err := startGateway(w.gatewayConfig())
	if err != nil {
		return nil, err
	}
	l.live = live
	bin, err := wl.Binary(w.Module)
	if err != nil {
		return nil, err
	}
	l.key = fmt.Sprintf("%x", sha256.Sum256(bin))
	if _, ok := live.Router().Lookup(l.key); !ok {
		return nil, fmt.Errorf("ladder: router has no shard for %s", w.Module)
	}

	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	node := cluster.Nodes[0]
	tele := obs.New(obs.Config{})

	// serve rung: Router.Submit on a private DES engine.
	l.sim = des.NewEngine()
	sp, err := newServedPool(w, node, tele, "rung-router")
	if err != nil {
		return nil, err
	}
	disp := serve.NewDispatcher(l.sim, sp.pool, dispatcherConfig(w.functionConfig()))
	disp.SetObserver(tele)
	l.router = serve.NewRouter(l.sim, serve.RouterConfig{})
	l.router.SetObserver(tele)
	if err := l.router.Register(sp.key, w.Module, disp); err != nil {
		return nil, err
	}
	l.rkey = sp.key

	// pool rung.
	pp, err := newServedPool(w, node, tele, "rung-pool")
	if err != nil {
		return nil, err
	}
	l.pool = pp.pool

	// engine rung.
	ep, err := newServedPool(w, node, tele, "rung-engine")
	if err != nil {
		return nil, err
	}
	if l.inst, err = ep.eng.Instantiate(ep.cm); err != nil {
		return nil, err
	}

	// exec rung: the engine's compile (so the tier policy is the served one),
	// then exec alone.
	xp, err := newServedPool(w, node, tele, "rung-exec")
	if err != nil {
		return nil, err
	}
	if l.xinst, err = exec.NewStore(exec.Config{}).InstantiateCompiled(xp.cm.Code, ""); err != nil {
		return nil, err
	}
	if m := l.xinst.Memory(); m != nil && xp.cm.Code.EnsureBaseline(m) == nil {
		m.CaptureBaseline()
	}
	return l, nil
}

func (l *requestLadder) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *requestLadder) checkValue(rung string, vals []exec.Value, err error) {
	switch {
	case err != nil:
		l.fail("%s: %v", rung, err)
	case len(vals) != 1 || exec.AsI32(vals[0]) != l.expect.want:
		l.fail("%s: %s(%d) returned %v, want %d", rung, l.w.Export, l.w.Arg, vals, l.expect.want)
	}
}

// rungs is the ladder, top to bottom. Each rung runs as a block of ops before
// the next rung starts (see climb), so the top rung sees back-to-back load as
// the timed run does; payloads[k] is the input of the block's k-th op. The top
// rung's reference is the same POST to the same child with no span kept.
func (l *requestLadder) rungs(payloads *[][]byte) []rung {
	w, arg := l.w, exec.I32(l.w.Arg)
	ctx := context.Background()
	var calls []func() error
	var before uint64
	var vals []exec.Value
	var callErr error
	var dirty int
	post := func(k int) {
		if err := l.remote.post(w.Module, (*payloads)[k]); err != nil {
			l.fail("http.Post: %v", err)
		}
	}
	return []rung{
		{name: "http.Post", layer: layerTransport, parent: -1, reference: post, run: post},
		{name: "gateway.ServeHTTP", layer: layerGateway, parent: 0,
			prepare: func(n int) {
				calls = calls[:0]
				for k := 0; k < n; k++ {
					calls = append(calls, serveHTTP(l.live, w.Module, (*payloads)[k]))
				}
			},
			run: func(k int) {
				if err := calls[k](); err != nil {
					l.fail("gateway.ServeHTTP: %v", err)
				}
			}},
		{name: "gateway.Bridge.SubmitRouted", layer: layerGateway, parent: 1, run: func(int) {
			l.tid++
			res, err := l.live.Bridge().SubmitRouted(ctx, l.live.Router(), l.key, 1<<40+l.tid)
			if err != nil || res.Err != nil || res.Cold {
				l.fail("Bridge.SubmitRouted: %v / %v (cold %v)", err, res.Err, res.Cold)
			}
		}},
		{name: "serve.Router.Submit", layer: layerServe, parent: 2, run: func(int) {
			l.tid++
			var res serve.RequestResult
			if err := l.router.Submit(l.rkey, l.tid, func(r serve.RequestResult) { res = r }); err != nil {
				l.fail("Router.Submit: %v", err)
			}
			l.sim.Run()
			if res.Err != nil || !res.Admitted || res.Cold {
				l.fail("Router.Submit: result %+v", res)
			}
		}},
		{name: "serve.Pool.cycle", layer: layerServe, parent: 3, run: func(int) {
			wi, ok := l.pool.Acquire(0)
			if !ok {
				l.fail("Pool.Acquire: pool dry")
				return
			}
			res, err := wi.Invoke(w.Export, arg)
			l.pool.Release(wi, 0)
			l.checkValue("Pool.cycle", res.Values, err)
		}},
		{name: "engine.Instance.Invoke", layer: layerEngine, parent: 4, run: func(int) {
			res, err := l.inst.Invoke(w.Export, arg)
			l.inst.ResetToBaseline()
			l.checkValue("engine.Invoke", res.Values, err)
		}},
		{name: "exec.Instance.Call", layer: layerExec, parent: 5,
			before: func(int) { before = l.xinst.Store().InstructionCount() },
			run: func(int) {
				vals, callErr = l.xinst.Call(w.Export, arg)
				if mem := l.xinst.Memory(); mem != nil {
					dirty = mem.DirtyPages()
					mem.ResetToBaseline()
				}
			},
			after: func(int) {
				l.checkValue("exec.Call", vals, callErr)
				l.checkRepeat(l.xinst.Store().InstructionCount()-before, dirty)
				if mem := l.xinst.Memory(); mem != nil && (mem.Pages() != mem.Baseline().Pages() || mem.DirtyPages() != 0) {
					l.fail("after reset: %d pages (baseline %d), %d dirty", mem.Pages(), mem.Baseline().Pages(), mem.DirtyPages())
				}
			}},
	}
}

// checkRepeat: the guest must do exactly the same work on every call.
func (l *requestLadder) checkRepeat(instr uint64, dirty int) {
	e := &l.expect
	if !e.primed {
		e.instr, e.dirty, e.primed = instr, dirty, true
		return
	}
	if instr != e.instr || dirty != e.dirty {
		l.fail("guest work changed: %d instructions / %d dirty pages, first call took %d / %d", instr, dirty, e.instr, e.dirty)
	}
}

// counts reads, at the ladder's own boundaries, the pool and router counters
// of the in-process gateway.
func (l *requestLadder) counts() (pool serve.Stats, rs serve.RouterStats, err error) {
	fn, ok := l.live.Function(l.w.Module)
	if !ok {
		return pool, rs, fmt.Errorf("ladder: function %s is gone", l.w.Module)
	}
	err = l.live.Bridge().Do(context.Background(), func() { pool = fn.Pool().Stats() })
	return pool, l.live.Router().Stats(), err
}

// scrape times one GET /metrics against the serve child.
func (l *requestLadder) scrape() (time.Duration, error) {
	t0 := time.Now()
	resp, err := l.remote.client.Get(l.remote.c.base + "/metrics")
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	el := time.Since(t0)
	if err == nil && (resp.StatusCode != http.StatusOK || !bytes.Contains(buf.Bytes(), []byte("dispatch_latency_ns"))) {
		err = fmt.Errorf("GET /metrics: status %d, %d bytes, no dispatch_latency_ns", resp.StatusCode, buf.Len())
	}
	return el, err
}

func (l *requestLadder) stop() error {
	err := l.remote.stop()
	if e := stopGateway(l.live); err == nil {
		err = e
	}
	return err
}

// variantSource is the WAT of a handler variant, as internal/workloads
// synthesizes it (the suffix lands in a data segment the handler never
// reads): workloads has no call that returns the text, which the wat.Compile
// rung needs. TestVariantSourceMatchesWorkloads holds the copy to the original.
func variantSource(name string) string {
	suffix := name[len(wl.HandlerVariantPrefix):]
	const mem = `(memory (export "memory") 1)`
	return strings.Replace(wl.RequestHandlerWAT, mem, mem+"\n  (data (i32.const 40) \""+suffix+"\")", 1)
}

// coldLadder is the first-request path: what a POST naming a never-seen
// module pays, as a tree of the public calls gateway.newFunction makes.
type coldLadder struct {
	w       workload
	sc      *script
	refused int // by the children already replaced
	warmed  int // warm-up deploys so far
	remote  *remote
	live    *gateway.Server
	node    *k8s.WorkerNode
	tele    *obs.Telemetry
	sim     *des.Engine
	rt      *serve.Router
	err     error
}

func newColdLadder(w workload, sc *script) *coldLadder {
	return &coldLadder{w: w, sc: sc}
}

// renew replaces everything a block of deploys accumulates in — the serve
// child, the in-process gateway and the hand-built rungs' node, router and
// telemetry — so that every rung works against a server of the same age, as
// the timed run's children are: never more than coldRound functions old.
func (l *coldLadder) renew() error {
	if err := l.stop(); err != nil {
		return err
	}
	var err error
	if l.remote, err = startRemote(l.w); err != nil {
		return err
	}
	if l.live, err = startGateway(l.w.gatewayConfig()); err != nil {
		return err
	}
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return err
	}
	l.node, l.tele, l.sim = cluster.Nodes[0], obs.New(obs.Config{}), des.NewEngine()
	l.rt = serve.NewRouter(l.sim, serve.RouterConfig{})
	l.rt.SetObserver(l.tele)
	return nil
}

func (l *coldLadder) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

// coldOp is the state one first-request op carries from rung to rung.
type coldOp struct {
	payload     []byte
	first, warm func() error
	name        string // the variant the lower rungs build by hand
	m, dm       *wasm.Module
	bin         []byte
	eng, eng2   *engine.Engine
	cm, cm2     *engine.CompiledModule
	pool        *serve.Pool
}

// rungs is the first-request tree. ops[k] is the block's k-th op; base is the
// number of ops before this block, so variant names never repeat.
func (l *coldLadder) rungs(ops *[]coldOp, base *int) []rung {
	const (
		top = iota
		handler
		warm
		binary
		watCompile
		encode
		compile
		load
		decode
		validate
		precompile
		newPool
		instFirst
		instCached
		attach
		register
	)
	fc := l.w.functionConfig()
	op := func(k int) *coldOp { return &(*ops)[k] }
	rs := make([]rung, register+1)
	firstPost := func(lane byte) func(int) {
		return func(k int) {
			if err := l.remote.post(l.sc.variant(lane, *base+k), op(k).payload); err != nil {
				l.fail("http.Post.first: %v", err)
			}
		}
	}
	// The reference is another first POST with no span kept. Both go to one
	// child, which like a round of the timed run is new and has done its
	// warm-up deploys; so is everything else a block's deploys accumulate in.
	rs[top] = rung{name: "http.Post.first", layer: layerTransport, parent: -1,
		prepare: func(int) {
			if err := l.renew(); err != nil {
				l.fail("ladder round: %v", err)
				return
			}
			for i := 0; i < l.w.Warmup; i++ {
				l.warmed++
				if err := l.remote.post(l.sc.variant('k', l.warmed), l.sc.payload(i)); err != nil {
					l.fail("warm-up deploy: %v", err)
				}
			}
		},
		reference: firstPost('u'), run: firstPost('a')}
	rs[handler] = rung{name: "gateway.ServeHTTP.first", layer: layerGateway, parent: top,
		prepare: func(n int) {
			for k := 0; k < n; k++ {
				o, name := op(k), l.sc.variant('b', *base+k)
				o.first, o.warm = serveHTTP(l.live, name, o.payload), serveHTTP(l.live, name, o.payload)
				o.name = l.sc.variant('c', *base+k)
			}
		},
		run: func(k int) {
			if err := op(k).first(); err != nil {
				l.fail("ServeHTTP.first: %v", err)
			}
		}}
	rs[warm] = rung{name: "gateway.ServeHTTP.warm", layer: layerGateway, parent: handler, run: func(k int) {
		if err := op(k).warm(); err != nil {
			l.fail("ServeHTTP.warm: %v", err)
		}
	}}
	// workloads.Binary, which the gateway calls twice per lazy create (once to
	// reject unknown names, once to build): wat.Compile once, wasm.Encode twice.
	rs[binary] = rung{name: "workloads.Binary", layer: layerWorkloads, parent: handler, run: func(k int) {
		o := op(k)
		var err error
		if _, err = wl.Binary(o.name); err == nil {
			o.bin, err = wl.Binary(o.name)
		}
		if err != nil {
			l.fail("workloads.Binary: %v", err)
		}
	}}
	rs[watCompile] = rung{name: "wat.Compile", layer: layerWat, parent: binary, run: func(k int) {
		o := op(k)
		var err error
		if o.m, err = wat.Compile(variantSource(o.name)); err != nil {
			l.fail("wat.Compile: %v", err)
		}
	}}
	rs[encode] = rung{name: "wasm.Encode", layer: layerWasm, parent: binary, times: 2, run: func(k int) {
		wasm.Encode(op(k).m)
	}}
	// engine.New + Compile on a fresh engine: the per-function cache misses.
	rs[compile] = rung{name: "engine.Compile", layer: layerEngine, parent: handler, run: func(k int) {
		o := op(k)
		o.eng = engine.New(engine.WAMR)
		o.eng.SetObserver(l.tele)
		var err error
		if o.cm, err = o.eng.Compile(o.bin); err != nil {
			l.fail("engine.Compile: %v", err)
		}
	}}
	rs[load] = rung{name: "cache.Load", layer: layerCache, parent: compile, run: func(k int) {
		if _, err := cache.New(engine.DefaultModuleCacheBytes).Load(op(k).bin); err != nil {
			l.fail("cache.Load: %v", err)
		}
	}}
	rs[decode] = rung{name: "wasm.Decode", layer: layerWasm, parent: load, run: func(k int) {
		o := op(k)
		var err error
		if o.dm, err = wasm.Decode(o.bin); err != nil {
			l.fail("wasm.Decode: %v", err)
		}
	}}
	rs[validate] = rung{name: "wasm.Validate", layer: layerWasm, parent: load, run: func(k int) {
		if err := wasm.Validate(op(k).dm); err != nil {
			l.fail("wasm.Validate: %v", err)
		}
	}}
	rs[precompile] = rung{name: "exec.Precompile", layer: layerExec, parent: load, run: func(k int) {
		if _, err := exec.Precompile(op(k).dm); err != nil {
			l.fail("exec.Precompile: %v", err)
		}
	}}
	rs[newPool] = rung{name: "serve.NewPool", layer: layerServe, parent: handler, run: func(k int) {
		o := op(k)
		var err error
		if o.pool, err = serve.NewPool(o.eng, o.cm, serve.Config{Size: poolSize}); err != nil {
			l.fail("serve.NewPool: %v", err)
		}
	}}
	// The pool's Instantiate calls, on an engine of their own: the first
	// donates the baseline image, the rest attach it.
	rs[instFirst] = rung{name: "engine.Instantiate.first", layer: layerEngine, parent: newPool,
		before: func(k int) {
			o := op(k)
			o.eng2 = engine.New(engine.WAMR)
			o.eng2.SetObserver(l.tele)
			var err error
			if o.cm2, err = o.eng2.Compile(o.bin); err != nil {
				l.fail("engine.Compile: %v", err)
			}
		},
		run: func(k int) {
			if _, err := op(k).eng2.Instantiate(op(k).cm2); err != nil {
				l.fail("engine.Instantiate.first: %v", err)
			}
		}}
	rs[instCached] = rung{name: "engine.Instantiate.cached", layer: layerEngine, parent: newPool, times: poolSize - 1, run: func(k int) {
		if _, err := op(k).eng2.Instantiate(op(k).cm2); err != nil {
			l.fail("engine.Instantiate.cached: %v", err)
		}
	}}
	rs[attach] = rung{name: "k8s.AttachWarmPool", layer: layerK8s, parent: handler, run: func(k int) {
		if _, err := attachPool(l.node, op(k).pool, op(k).name, l.tele); err != nil {
			l.fail("AttachWarmPool: %v", err)
		}
	}}
	rs[register] = rung{name: "serve.Router.Register", layer: layerServe, parent: handler, run: func(k int) {
		o := op(k)
		disp := serve.NewDispatcher(l.sim, o.pool, dispatcherConfig(fc))
		disp.SetObserver(l.tele)
		if err := l.rt.Register(fmt.Sprintf("%x", o.cm.Digest), o.name, disp); err != nil {
			l.fail("Router.Register: %v", err)
		}
	}}
	return rs
}

// stop drains the serve child (checking its books) and the in-process
// gateway, whichever of them is up.
func (l *coldLadder) stop() error {
	var err error
	if l.remote != nil {
		err = l.remote.stop()
		l.refused += l.remote.refused
		l.remote = nil
	}
	if l.live != nil {
		if e := stopGateway(l.live); err == nil {
			err = e
		}
		l.live = nil
	}
	return err
}

// cellStages is what one traced grid cell took, stage by stage.
type cellStages struct {
	Deploy, Run time.Duration
	Events      int
}

// oursCell is bench.MeasureDeployment for crun-wamr, stage by stage: each
// stage runs inside stage(name, layer, fn), which the traced run makes a span,
// and the DES is stepped by hand so its events can be counted. It returns the
// cluster still holding its pods. The traced run checks its total against
// bench.MeasureDeployment's (closure), which is what keeps this copy honest.
func oursCell(density int, stage func(name, layer string, fn func())) (*k8s.Cluster, cellStages, error) {
	var st cellStages
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	cfg := bench.OursConfig
	var cluster *k8s.Cluster
	stage("k8s.NewCluster", layerK8s, func() {
		var err error
		cluster, err = k8s.NewCluster(k8s.DefaultClusterConfig())
		fail(err)
	})
	if firstErr != nil {
		return nil, st, firstErr
	}
	stage("containerd.PrePull", layerContainrd, func() {
		fail(cluster.Nodes[0].Runtime.PrePull(cfg.Image))
	})
	var pods []*k8s.Pod
	st.Deploy = timed(func() {
		stage("k8s.Deploy", layerK8s, func() {
			var err error
			pods, err = cluster.Deploy(k8s.DeployOptions{
				NamePrefix: cfg.RuntimeClass, RuntimeClassName: cfg.RuntimeClass, Image: cfg.Image, Replicas: density,
			})
			fail(err)
		})
	})
	st.Run = timed(func() {
		stage("k8s.Run", layerK8s, func() {
			for cluster.Engine.Step() {
				st.Events++
			}
		})
	})
	_, err := cluster.LastStartTime(pods)
	fail(err)
	return cluster, st, firstErr
}

// densityCell is one traced grid cell: cell -> NewCluster / PrePull / Deploy /
// Run, the stages really nested in the cell.
func densityCell(rec *recorder, i, density int) (st cellStages, err error) {
	rec.nest("density.cell", "bench", i, -1, func(cell int) {
		_, st, err = oursCell(density, func(name, layer string, fn func()) { rec.time(name, layer, i, cell, fn) })
	})
	return st, err
}

// containerLadder starts one Wasm container from four entry points, each a
// layer lower: CRI, containerd task, crun, engine.
type containerLadder struct {
	client *containerd.Client
	cri    *cri.Service
	crun   *core.Crun
	eng    *engine.Engine
	cm     *engine.CompiledModule
	n      int
	err    error
}

func newContainerLadder() (*containerLadder, error) {
	cluster, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	node := cluster.Nodes[0]
	if err := node.Runtime.PrePull(bench.WasmImage); err != nil {
		return nil, err
	}
	bin, err := wl.Binary("minimal-service")
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.WAMR)
	cm, err := eng.Compile(bin)
	if err != nil {
		return nil, err
	}
	return &containerLadder{
		client: node.Runtime, cri: cri.NewService(node.Runtime),
		crun: core.New(core.Config{Node: node.OS, Engine: engine.WAMR}),
		eng:  eng, cm: cm,
	}, nil
}

func (l *containerLadder) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// rungs starts one container per op from each entry point. last receives the
// guest work of the most recent engine.Run.
func (l *containerLadder) rungs(last *runCounts) []rung {
	var tasks []*containerd.Task
	var ctrs []*containerd.Container
	create := func(prefix string, n int) {
		ctrs = ctrs[:0]
		for k := 0; k < n; k++ {
			l.n++
			ctr, err := l.client.CreateContainer(fmt.Sprintf("%s-%d", prefix, l.n), bench.WasmImage, containerd.HandlerCrunWAMR, containerd.ContainerOpts{})
			l.fail(err)
			ctrs = append(ctrs, ctr)
		}
	}
	return []rung{
		{name: "cri.start", layer: layerCRI, parent: -1, run: func(int) {
			l.n++
			uid := fmt.Sprintf("ladder-%d", l.n)
			sbx, err := l.cri.RunPodSandbox(cri.PodSandboxConfig{
				Name: uid, Namespace: "default", UID: uid, CgroupParent: "/kubepods/pod-" + uid,
				RuntimeHandler: containerd.HandlerCrunWAMR,
			})
			if err != nil {
				l.fail(err)
				return
			}
			id, err := l.cri.CreateContainer(sbx, cri.ContainerConfig{Name: "app", Image: bench.WasmImage})
			if err != nil {
				l.fail(err)
				return
			}
			_, err = l.cri.StartContainer(id)
			l.fail(err)
		}},
		{name: "containerd.Task.Start", layer: layerContainrd, parent: 0,
			prepare: func(n int) {
				create("task", n)
				tasks = tasks[:0]
				for _, ctr := range ctrs {
					if l.err != nil {
						return
					}
					task, err := ctr.NewTask()
					l.fail(err)
					tasks = append(tasks, task)
				}
			},
			run: func(k int) {
				_, err := tasks[k].Start()
				l.fail(err)
			}},
		{name: "core.Crun.Create+Start", layer: layerCore, parent: 1,
			prepare: func(n int) { create("crun", n) },
			run: func(k int) {
				if err := l.crun.Create(ctrs[k].ID, ctrs[k].Bundle); err != nil {
					l.fail(err)
					return
				}
				_, err := l.crun.Start(ctrs[k].ID)
				l.fail(err)
			}},
		{name: "engine.Run", layer: layerEngine, parent: 2, run: func(int) {
			rr, err := l.eng.Run(l.cm, wasi.Config{Args: []string{"/app.wasm"}})
			l.fail(err)
			if err == nil && rr.ExitCode != 0 {
				l.fail(fmt.Errorf("minimal-service exited %d", rr.ExitCode))
			}
			*last = runCounts{Instructions: rr.Instructions, PrivatePages: rr.PrivatePages}
		}},
	}
}

// runCounts is the guest work of one minimal-service run.
type runCounts struct {
	Instructions uint64
	PrivatePages uint32
}
