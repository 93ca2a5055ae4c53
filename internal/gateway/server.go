package gateway

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/obs/tsdb"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/workloads"
)

// FunctionConfig declares one servable function: a workload module executed
// by one engine profile behind one warm pool and dispatcher.
type FunctionConfig struct {
	// Module is the workload name (see workloads.Names); it is also the
	// path segment of POST /v1/functions/{module}.
	Module string
	// Profile is the engine profile name; empty means wamr.
	Profile string
	// Export is the guest entry point; empty means "handle".
	Export string
	// Arg is the argument passed to Export (sizes the request work).
	Arg int32
	// PoolSize is the warm pool size; 0 means cold-only serving.
	PoolSize int

	// Dispatcher shaping; zero values inherit DispatcherConfig's defaults.
	MaxConcurrency int
	QueueDepth     int
	QueueDeadline  time.Duration
	MaxRetries     int
	RequestTimeout time.Duration
}

// Config shapes one gateway server.
type Config struct {
	// Functions to register; empty registers DefaultFunction unless a
	// LazyTemplate is set, which then starts the gateway with none.
	Functions []FunctionConfig
	// LazyTemplate, when non-nil, turns POST /v1/functions/{module} into a
	// resolver for any workload module: the first request for an
	// unregistered module creates its warm pool, node attachment, and
	// dispatcher shard from this template (Module is overwritten per
	// request). nil keeps the fixed-function behaviour: unknown modules 404.
	LazyTemplate *FunctionConfig
	// Bridge is the real-time run layer (dilation, submission buffer).
	Bridge BridgeConfig
	// ClusterNodes sizes the simulated cluster; 0 means 1.
	ClusterNodes int
	// Telemetry receives metrics and spans; nil creates a fresh enabled
	// instance (the live /metrics endpoint needs one to scrape).
	Telemetry *obs.Telemetry
	// AccessLog receives one line per request; nil disables.
	AccessLog io.Writer
	// AccessLogFormat selects "text" (default) or "json": one JSON object per
	// request with ids, status, shard pressure, latencies, and the
	// sampled-trace flag.
	AccessLogFormat string

	// SampleInterval enables the windowed time-series store (tsdb): windows
	// of this simulated length close as the bridge loop advances. 0 disables
	// sampling entirely — /v1/timeseries then serves 404 and the sample path
	// costs nothing.
	SampleInterval time.Duration
	// SampleCapacity bounds retained windows; 0 means tsdb.DefaultCapacity.
	SampleCapacity int
	// TailSampling, when non-nil, keeps full span trees only for interesting
	// requests (error, latency past the threshold) under the
	// configured memory bound.
	TailSampling *obs.TailConfig
}

// DefaultFunction serves the request-handler workload the serving
// experiments use, on the WAMR profile with a small warm pool.
func DefaultFunction() FunctionConfig {
	return FunctionConfig{
		Module:         "request-handler",
		Profile:        "wamr",
		Export:         "handle",
		Arg:            500,
		PoolSize:       4,
		MaxConcurrency: 4,
		QueueDepth:     64,
		QueueDeadline:  time.Second,
	}
}

// Function is one registered module: its config, its router shard key, and
// the cluster.Replica that owns the pool, dispatcher and the node attachment
// charging pool memory to the simulated cluster. The replica's
// placement moves when a node failure re-homes the function; it is only
// touched on the bridge loop goroutine (or before Start).
type Function struct {
	cfg FunctionConfig
	key string // router shard key: the compiled module's content digest
	rep *cluster.Replica
}

// Node names the cluster node currently charged for the function's pool.
func (f *Function) Node() string { return f.rep.Node().Name }

// Dispatcher exposes the function's dispatcher (observer-safe accessors
// only, per the DES threading contract).
func (f *Function) Dispatcher() *serve.Dispatcher { return f.rep.Dispatcher() }

// Pool exposes the function's warm pool.
func (f *Function) Pool() *serve.Pool { return f.rep.Pool() }

// Module names the function's workload module.
func (f *Function) Module() string { return f.cfg.Module }

// Engine exposes the wasm engine the function runs on: the server's one
// engine for the function's profile, shared with every other function on that
// profile. Mutations must run on the bridge loop goroutine via Bridge.Do, and
// reach all of them — arming a fault injector arms the whole profile.
func (f *Function) Engine() *engine.Engine { return f.rep.Pool().Engine() }

// Server is the gateway: it owns the simulated cluster (control plane, its
// own DES engine driven synchronously under a mutex) and the serving bridge
// (data plane, one DES engine driven in real time by the bridge loop).
type Server struct {
	cfg     Config
	tele    *obs.Telemetry
	sim     *des.Engine
	bridge  *Bridge
	cluster *k8s.Cluster
	router  *serve.Router
	mux     *http.ServeMux
	logger  *log.Logger

	// fns maps module name → function; addFunction inserts in place. regMu
	// serializes addFunction, whose build waits on the bridge loop, so fnsMu
	// is never held across it (a loop-side reader of fns would deadlock).
	fnsMu sync.RWMutex
	fns   map[string]*Function
	regMu sync.Mutex
	// modCache is the node-level compiled-module cache and engines the one
	// engine per profile over it, each created on first use under regMu.
	modCache *cache.Cache
	engines  map[string]*engine.Engine

	// clusterMu serializes control-surface calls: each one mutates API
	// objects and then drives the cluster's engine to quiescence.
	clusterMu  sync.Mutex
	containers map[string]*k8s.Pod // docker-surface id → pod

	reqSeq   atomic.Int64
	draining atomic.Bool
	started  time.Time

	// db is nil when sampling is disabled; its methods no-op on a nil
	// receiver so the hot path needs no branches.
	db *tsdb.DB

	obsHTTPReqs   *obs.Counter
	obsHTTPErrs   *obs.Counter
	obsWallNs     *obs.Histogram
	obsBridgeBusy *obs.Counter
}

// New builds a gateway: simulated cluster, one cluster.Replica per function
// (pool memory attached to the node artifact locality picks), telemetry
// wired through every layer with the tracer on the serving DES clock. The
// bridge loop is not yet running — call Start.
func New(cfg Config) (*Server, error) {
	if len(cfg.Functions) == 0 && cfg.LazyTemplate == nil {
		cfg.Functions = []FunctionConfig{DefaultFunction()}
	}
	tele := cfg.Telemetry
	if tele == nil {
		tele = obs.New(obs.Config{})
	}
	clusterCfg := k8s.DefaultClusterConfig()
	if cfg.ClusterNodes > 0 {
		clusterCfg.NumNodes = cfg.ClusterNodes
	}
	kc, err := k8s.NewCluster(clusterCfg)
	if err != nil {
		return nil, err
	}
	kc.SetObserver(tele)

	sim := des.NewEngine()
	if tr := tele.Tracer(); tr != nil {
		tr.SetClock(func() int64 { return int64(sim.Now()) })
		tr.SetTailSampling(cfg.TailSampling)
	}
	obs.StampBuildInfo(tele.Metrics())

	// Windowed sampling: the tsdb closes windows as the bridge loop advances
	// virtual time, so window edges land at deterministic sim times.
	var db *tsdb.DB
	if cfg.SampleInterval > 0 {
		db = tsdb.New(tele, tsdb.Config{
			Interval: cfg.SampleInterval,
			Capacity: cfg.SampleCapacity,
		})
		trackDefaultSeries(db, tele)
		cfg.Bridge.Sampler = db.Advance
		if cfg.Bridge.SamplerTick <= 0 && cfg.Bridge.Dilation > 0 {
			cfg.Bridge.SamplerTick = time.Duration(float64(cfg.SampleInterval) * cfg.Bridge.Dilation)
		}
	}

	s := &Server{
		cfg:        cfg,
		tele:       tele,
		sim:        sim,
		bridge:     NewBridge(sim, cfg.Bridge),
		cluster:    kc,
		router:     serve.NewRouter(sim, serve.RouterConfig{}),
		containers: map[string]*k8s.Pod{},
		fns:        map[string]*Function{},
		modCache:   cache.New(engine.DefaultModuleCacheBytes),
		engines:    map[string]*engine.Engine{},
		started:    time.Now(),
		db:         db,

		obsHTTPReqs:   tele.Counter("gateway_http_requests_total"),
		obsHTTPErrs:   tele.Counter("gateway_http_errors_total"),
		obsWallNs:     tele.Histogram("gateway_wall_latency_ns"),
		obsBridgeBusy: tele.Counter("gateway_bridge_busy_total"),
	}
	s.router.SetObserver(tele)
	// The sampler's own count is its Stats: a nil db (sampling off) reports 0.
	tele.Metrics().AddSource(db)
	if cfg.AccessLog != nil {
		s.logger = log.New(cfg.AccessLog, "", 0)
	}

	for _, fc := range cfg.Functions {
		if _, dup := s.Function(fc.Module); dup {
			return nil, fmt.Errorf("gateway: duplicate function module %q", fc.Module)
		}
		if _, err := s.addFunction(context.Background(), fc, false); err != nil {
			return nil, err
		}
	}
	s.routes()
	return s, nil
}

// trackDefaultSeries registers the aggregate serving series with the tsdb.
// The unlabeled dispatch_* series are sums over every function's dispatcher
// (same-name emissions add), so these windows describe the whole gateway.
func trackDefaultSeries(db *tsdb.DB, tele *obs.Telemetry) {
	for _, name := range []string{
		"dispatch_submitted_total", "dispatch_completed_total",
		"dispatch_rejected_total", "dispatch_expired_total",
		"dispatch_failed_total", "dispatch_retries_total",
		"gateway_http_requests_total", "gateway_http_errors_total",
	} {
		db.TrackCounter(name)
	}
	for _, name := range []string{"dispatch_queue_depth", "dispatch_in_flight"} {
		db.TrackGauge(name)
	}
	for _, name := range []string{"dispatch_latency_ns", "dispatch_queue_wait_ns"} {
		db.TrackHistogram(name, tele.Histogram(name))
	}
}

// addFunction returns the function already registered under the module's
// name, or resolves the workload module (before building anything: an
// unknown name is the common failure — a typo in a lazy URL — and must stay
// a cheap *workloads.UnknownWorkloadError), builds the function, registers
// its dispatcher as a router shard keyed by module digest, and inserts it in
// fns. A shard key the router refuses retires the replica just built.
// Serialized under regMu. With live set (lazy creation on a running
// server), the engine/pool/attachment construction runs on the bridge loop
// goroutine via Do, because pool pre-instantiation syncs node memory
// accounting that in-flight requests of co-located pools are mutating on
// that goroutine; ctx can refuse the build only before it is queued there,
// and once it is, the build is waited for and registered whatever ctx says,
// so a client that gives up leaves a function a retry finds, not a replica
// charged to the node that nothing serves.
func (s *Server) addFunction(ctx context.Context, fc FunctionConfig, live bool) (*Function, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if fn, ok := s.Function(fc.Module); ok {
		return fn, nil
	}
	bin, err := workloads.Binary(fc.Module)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	b := &build{s: s, fc: fc, bin: bin}
	if live {
		b.call = call{work: b, done: make(chan struct{})}
		if doErr := s.bridge.do(ctx, &b.call, true); doErr != nil {
			return nil, doErr
		}
	} else {
		b.run()
	}
	fn := b.fn
	if b.err != nil {
		return nil, b.err
	}
	if err := s.router.Register(fn.key, fc.Module, fn.Dispatcher()); err != nil {
		// Nothing will reach the replica: take its pool and charge off the
		// node, on the loop like the build, and whatever ctx says by now.
		if live {
			_ = s.bridge.Do(context.WithoutCancel(ctx), fn.rep.Retire)
		} else {
			fn.rep.Retire()
		}
		return nil, err
	}
	s.fnsMu.Lock()
	s.fns[fc.Module] = fn
	s.fnsMu.Unlock()
	return fn, nil
}

// build is one function's construction, as addFunction hands it to the
// bridge loop (its call): newFunction's inputs and what it returned.
type build struct {
	call
	s   *Server
	fc  FunctionConfig
	bin []byte
	fn  *Function
	err error
}

func (b *build) run() { b.fn, b.err = b.s.newFunction(b.fc, b.bin) }

// engineFor returns the server's engine for a profile, building and observing
// it on first use. Callers hold regMu.
func (s *Server) engineFor(profile string) (*engine.Engine, error) {
	if eng, ok := s.engines[profile]; ok {
		return eng, nil
	}
	prof, ok := engine.ByName(profile)
	if !ok {
		return nil, fmt.Errorf("gateway: unknown engine profile %q", profile)
	}
	eng := engine.NewWithCache(prof, s.modCache)
	eng.SetObserver(s.tele)
	s.engines[profile] = eng
	return eng, nil
}

// newFunction wires one module end to end: compile on the profile's engine,
// place by artifact locality (cluster.PickNode), then the replica — warm
// pool, cluster memory attachment, dispatcher.
func (s *Server) newFunction(fc FunctionConfig, bin []byte) (*Function, error) {
	if fc.Profile == "" {
		fc.Profile = "wamr"
	}
	if fc.Export == "" {
		fc.Export = "handle"
	}
	eng, err := s.engineFor(fc.Profile)
	if err != nil {
		return nil, err
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		return nil, fmt.Errorf("gateway: compile %s: %w", fc.Module, err)
	}
	arts := cm.SharedArtifacts()
	node := cluster.PickNode(s.cluster.Nodes, arts[:])
	if node < 0 {
		return nil, fmt.Errorf("gateway: place %s: %w", fc.Module, cluster.ErrNoLiveNode)
	}
	rep, err := cluster.NewReplica(s.sim, eng, cm, s.cluster.Nodes[node], fc.Module+"-"+fc.Profile,
		serve.Config{Size: fc.PoolSize},
		serve.DispatcherConfig{
			MaxConcurrency: fc.MaxConcurrency,
			QueueDepth:     fc.QueueDepth,
			Policy:         serve.PolicyQueue,
			QueueDeadline:  fc.QueueDeadline,
			Export:         fc.Export,
			Arg:            fc.Arg,
			MaxRetries:     fc.MaxRetries,
			RequestTimeout: fc.RequestTimeout,
		}, s.tele)
	if err != nil {
		return nil, fmt.Errorf("gateway: %s: %w", fc.Module, err)
	}
	var key [2 * len(cm.Digest)]byte
	hex.Encode(key[:], cm.Digest[:])
	return &Function{cfg: fc, key: string(key[:]), rep: rep}, nil
}

// Start launches the bridge event loop; the server is ready to serve once
// it returns.
func (s *Server) Start() { s.bridge.Start() }

// Telemetry returns the live telemetry the /metrics endpoint scrapes.
func (s *Server) Telemetry() *obs.Telemetry { return s.tele }

// Function returns a registered function by module name, from any goroutine.
func (s *Server) Function(module string) (*Function, bool) {
	s.fnsMu.RLock()
	defer s.fnsMu.RUnlock()
	f, ok := s.fns[module]
	return f, ok
}

// Functions lists the registered functions sorted by module name.
func (s *Server) Functions() []*Function {
	s.fnsMu.RLock()
	out := make([]*Function, 0, len(s.fns))
	for _, f := range s.fns {
		out = append(out, f)
	}
	s.fnsMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Module < out[j].cfg.Module })
	return out
}

// Bridge exposes the real-time run layer (for introspection and tests).
func (s *Server) Bridge() *Bridge { return s.bridge }

// Router exposes the sharded dispatch layer (for introspection and tests).
func (s *Server) Router() *serve.Router { return s.router }

// TimeSeries exposes the windowed metrics store (nil when sampling is off).
func (s *Server) TimeSeries() *tsdb.DB { return s.db }

// Shutdown drains the gateway: the health check flips to draining, every
// dispatcher refuses new work with ErrDraining, the bridge flushes accepted
// submissions to their final results, and the loop stops. In-flight
// requests complete; the admission identity Submitted == Completed +
// Rejected + Expired + Failed balances once Shutdown returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.router.SetDraining(true)
	return s.bridge.Drain(ctx)
}

// routes installs the HTTP surface.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/functions/{module}", s.handleInvoke)
	mux.HandleFunc("POST /v1/containers/create", s.handleContainerCreate)
	mux.HandleFunc("POST /v1/containers/{id}/start", s.handleContainerStart)
	mux.HandleFunc("GET /v1/containers/json", s.handleContainerList)
	mux.HandleFunc("GET /v1/containers/{id}/stats", s.handleContainerStats)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("POST /v1/cluster/nodes/{node}/fail", s.handleNodeFail)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/timeseries", s.handleTimeSeries)
	// Every other route is more specific than "/", so this one only sees
	// requests no route above takes.
	mux.HandleFunc("/", s.handleUnmatched)
	s.mux = mux
}

// probeMethods are the methods handleUnmatched tries against the other routes
// to fill a 405's Allow header.
var probeMethods = []string{
	http.MethodDelete, http.MethodGet, http.MethodOptions, http.MethodPatch,
	http.MethodPost, http.MethodPut, http.MethodTrace,
}

// handleUnmatched answers in the JSON envelope where net/http would answer in
// plain text: 405 method_not_allowed, with the Allow header, when the path is
// a route under other methods, and 404 unknown_route otherwise.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	var allow []string
	for _, m := range probeMethods {
		probe := &http.Request{Method: m, Host: r.Host, URL: r.URL}
		if _, pattern := s.mux.Handler(probe); pattern != "/" {
			allow = append(allow, m)
		}
	}
	if len(allow) == 0 {
		writeError(w, ErrorMapping{http.StatusNotFound, "unknown_route", 0},
			fmt.Errorf("gateway: no route for %s %s", r.Method, r.URL.Path))
		return
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeError(w, ErrorMapping{http.StatusMethodNotAllowed, "method_not_allowed", 0},
		fmt.Errorf("gateway: %s %s not allowed (allow: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")))
}

// invokeRecord is the per-request facts of one invoke, filled by handleInvoke
// stage by stage; the response headers, the body and both access-log formats
// are rendered from it.
type invokeRecord struct {
	stage int
	// reqID is the client's X-Request-Id; when the client sent none, it is
	// empty until setHeaders renders req-%08d from tid.
	reqID string
	tid   int64
	// Shard pressure as sampled at admission (lock-free accessors).
	queueLen, inFlight int
	res                serve.RequestResult
}

// How far an invoke got; each stage adds fields to the record.
const (
	invokeIdentified = iota + 1 // tid, queueLen, inFlight (and a client reqID)
	invokeSettled               // res: the bridge returned a result
	invokeCompleted             // res is a success
)

// appendSimLatencyMs appends the simulated latency the way the
// X-Sim-Latency-Ms header carries it: milliseconds to three decimals.
func (r *invokeRecord) appendSimLatencyMs(b []byte) []byte {
	return strconv.AppendFloat(b, float64(r.res.Latency)/1e6, 'f', 3, 64)
}

// setHeaders renders the record as the invoke response headers, with the
// Content-Type every identified invoke answers with (JSON, a result or an
// error envelope). The generated request id and the numbers are rendered
// into one string, each value a substring of it; the values share one
// slice, each header a capped one-element window of it; and the keys are
// already canonical, so Header.Set's per-call slice is not needed.
func (r *invokeRecord) setHeaders(h http.Header) {
	if r.stage < invokeIdentified {
		return
	}
	var buf [96]byte
	var ends [5]int // generated id, tid, queue length, in flight, latency
	b := buf[:0]
	if r.reqID == "" {
		// req-%08d, built without fmt.
		b = append(b, "req-"...)
		for n := int64(10_000_000); n > 1 && r.tid < n; n /= 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, r.tid, 10)
	}
	ends[0] = len(b)
	b = strconv.AppendInt(b, r.tid, 10)
	ends[1] = len(b)
	b = strconv.AppendInt(b, int64(r.queueLen), 10)
	ends[2] = len(b)
	b = strconv.AppendInt(b, int64(r.inFlight), 10)
	ends[3] = len(b)
	if r.stage >= invokeCompleted {
		b = r.appendSimLatencyMs(b)
	}
	ends[4] = len(b)
	text := string(b)
	if r.reqID == "" {
		r.reqID = text[:ends[0]]
	}

	vals := append(make([]string, 0, 8), "application/json",
		r.reqID, text[ends[0]:ends[1]], text[ends[1]:ends[2]], text[ends[2]:ends[3]])
	switch r.stage {
	case invokeCompleted:
		vals = append(vals, strconv.FormatBool(r.res.TraceSampled),
			strconv.FormatBool(r.res.Cold), text[ends[3]:ends[4]])
	case invokeSettled:
		vals = append(vals, strconv.FormatBool(r.res.TraceSampled))
	}
	for i := range vals {
		h[invokeHeaders[i]] = vals[i : i+1 : i+1]
	}
}

// invokeHeaders are the keys setHeaders fills, in the order of its values:
// those of every identified invoke, then a settled one's, then a completed
// one's.
var invokeHeaders = [...]string{
	"Content-Type", "X-Request-Id", "X-Trace-Tid", "X-Queue-Len", "X-In-Flight",
	"X-Trace-Sampled", "X-Cold", "X-Sim-Latency-Ms",
}

// statusWriter captures the response code for the access log and carries the
// invoke record; the record's headers go out with the status line. Writers
// are pooled: one is a request's from ServeHTTP's Get to its Put. resp is
// the invoke's result body, encoded from the writer so that boxing it
// allocates nothing, and scratch is the buffer for counting the request
// body and then rendering the access line.
type statusWriter struct {
	http.ResponseWriter
	status  int
	invoke  invokeRecord
	resp    InvokeResponse
	scratch [512]byte
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.invoke.setHeaders(sw.Header())
	sw.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches with access logging and request-scoped telemetry.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.obsHTTPReqs.Inc()
	sw := statusWriterPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.status = w, http.StatusOK
	s.mux.ServeHTTP(sw, r)
	wall := time.Since(start)
	s.obsWallNs.Record(int64(wall))
	if sw.status >= 400 {
		s.obsHTTPErrs.Inc()
	}
	switch {
	case s.logger == nil:
	case s.cfg.AccessLogFormat == "json":
		s.logger.Print(jsonAccessLine(r, sw, wall))
	default:
		// Output copies the line into the logger's own buffer before
		// returning, so the string may alias the scratch buffer.
		line := textAccessLine(sw.scratch[:0], r, sw, wall)
		_ = s.logger.Output(2, unsafe.String(unsafe.SliceData(line), len(line)))
	}
	sw.ResponseWriter, sw.invoke, sw.resp = nil, invokeRecord{}, InvokeResponse{}
	statusWriterPool.Put(sw)
}

// textAccessLine appends one request's text access line to b:
//
//	METHOD PATH STATUS req_id=ID tid=TID wall=WALL q=QUEUE in_flight=N
//
// with the id and tid empty and the last two fields absent when the request
// never reached the identified stage.
func textAccessLine(b []byte, r *http.Request, sw *statusWriter, wall time.Duration) []byte {
	inv := &sw.invoke
	b = append(append(append(b, r.Method...), ' '), r.URL.Path...)
	b = strconv.AppendInt(append(b, ' '), int64(sw.status), 10)
	if inv.stage < invokeIdentified {
		return append(append(b, " req_id= tid= wall="...), wall.String()...)
	}
	b = append(append(b, " req_id="...), inv.reqID...)
	b = strconv.AppendInt(append(b, " tid="...), inv.tid, 10)
	b = append(append(b, " wall="...), wall.String()...)
	b = strconv.AppendInt(append(b, " q="...), int64(inv.queueLen), 10)
	return strconv.AppendInt(append(b, " in_flight="...), int64(inv.inFlight), 10)
}

// accessRecord is one JSON access-log line. Invoke-only fields are pointers
// into the invoke record, nil for the stages the request did not reach, so
// non-invoke requests (introspection, metrics) log compact objects.
type accessRecord struct {
	Method       string   `json:"method"`
	Path         string   `json:"path"`
	Status       int      `json:"status"`
	WallMs       float64  `json:"wall_ms"`
	RequestID    string   `json:"request_id,omitempty"`
	TraceTID     string   `json:"trace_tid,omitempty"`
	Module       string   `json:"module,omitempty"`
	QueueLen     *int     `json:"queue_len,omitempty"`
	InFlight     *int     `json:"in_flight,omitempty"`
	SimLatencyMs *float64 `json:"sim_latency_ms,omitempty"`
	Cold         *bool    `json:"cold,omitempty"`
	TraceSampled *bool    `json:"trace_sampled,omitempty"`
}

// jsonAccessLine renders one request as a JSON object.
func jsonAccessLine(r *http.Request, sw *statusWriter, wall time.Duration) string {
	inv := &sw.invoke
	rec := accessRecord{
		Method: r.Method,
		Path:   r.URL.Path,
		Status: sw.status,
		WallMs: float64(wall) / 1e6,
	}
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/functions/"); ok {
		rec.Module = rest
	}
	if inv.stage >= invokeIdentified {
		rec.RequestID, rec.TraceTID = inv.reqID, strconv.FormatInt(inv.tid, 10)
		rec.QueueLen, rec.InFlight = &inv.queueLen, &inv.inFlight
	}
	if inv.stage >= invokeSettled {
		rec.TraceSampled = &inv.res.TraceSampled
	}
	if inv.stage >= invokeCompleted {
		// The log carries the header's three decimals, not the full latency.
		var buf [24]byte
		ms, _ := strconv.ParseFloat(string(inv.appendSimLatencyMs(buf[:0])), 64)
		rec.SimLatencyMs, rec.Cold = &ms, &inv.res.Cold
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Sprintf(`{"method":%q,"path":%q,"status":%d}`, r.Method, r.URL.Path, sw.status)
	}
	return string(b)
}

// InvokeResponse is the success body of POST /v1/functions/{module}.
type InvokeResponse struct {
	Module       string  `json:"module"`
	RequestID    string  `json:"request_id"`
	Cold         bool    `json:"cold"`
	Attempts     int     `json:"attempts"`
	LatencyMs    float64 `json:"latency_ms"`
	QueueWaitMs  float64 `json:"queue_wait_ms"`
	RetryWaitMs  float64 `json:"retry_wait_ms"`
	PayloadBytes int64   `json:"payload_bytes"`
	TraceSampled bool    `json:"trace_sampled"`
}

// maxPayloadBytes bounds an invoke request body.
const maxPayloadBytes = 1 << 20

// countBody reads body to its end through buf and returns its length. A
// body longer than maxPayloadBytes stops the read with *http.MaxBytesError,
// the error http.MaxBytesReader would return; any other read error is
// returned as it came.
func countBody(body io.Reader, buf []byte) (int64, error) {
	var n int64
	for {
		m, err := body.Read(buf)
		if n += int64(m); n > maxPayloadBytes {
			return n, &http.MaxBytesError{Limit: maxPayloadBytes}
		}
		switch err {
		case nil:
		case io.EOF:
			return n, nil
		default:
			return n, err
		}
	}
}

// handleInvoke is the data path: payload in, routed bridge submission,
// simulated execution, result + timing out. The module resolves through
// fns (one read-locked lookup) and then routes by the compiled module's
// digest through the sharded router; with Config.LazyTemplate set, the
// first request for an unregistered workload creates its function on the
// fly. The X-Request-Id header (client-supplied or generated) is threaded
// into the span tracer as the request TID via its numeric companion
// X-Trace-Tid, so a live server's Chrome trace correlates with its access
// log.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	module := r.PathValue("module")
	fn, ok := s.Function(module)
	if !ok && s.cfg.LazyTemplate != nil {
		var err error
		if fn, err = s.lazyFunction(r.Context(), module); err != nil && !isUnknownWorkload(err) {
			writeError(w, MapError(err, 0), err)
			return
		}
		ok = err == nil
	}
	if !ok {
		writeError(w, ErrorMapping{http.StatusNotFound, "unknown_function", 0},
			fmt.Errorf("gateway: unknown function %q", module))
		return
	}
	// The body is only counted: payload_bytes is all the invoke reports.
	sw := w.(*statusWriter)
	payloadBytes, err := countBody(r.Body, sw.scratch[:])
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, ErrorMapping{http.StatusRequestEntityTooLarge, "payload_too_large", 0}, err)
		} else {
			writeError(w, ErrorMapping{http.StatusBadRequest, "bad_request", 0}, err)
		}
		return
	}
	// Read to EOF and closed, the body needs no discard pass from net/http
	// once the response starts.
	_ = r.Body.Close()
	inv := &sw.invoke
	inv.tid = s.reqSeq.Add(1)
	inv.reqID = r.Header.Get("X-Request-Id")
	// Shard introspection for the access log: lock-free atomic reads, so
	// sampling them per request cannot stall a dispatch burst.
	disp := fn.Dispatcher()
	inv.queueLen, inv.inFlight = disp.QueueLen(), disp.InFlight()
	inv.stage = invokeIdentified

	res, err := s.bridge.SubmitRouted(r.Context(), s.router, fn.key, inv.tid)
	if err != nil {
		if err == ErrBridgeBusy {
			s.obsBridgeBusy.Inc()
		}
		writeError(w, MapError(err, fn.cfg.QueueDeadline), err)
		return
	}
	// Sampled-trace flag before the error branch: failed invocations are
	// exactly the ones the tail sampler keeps, and the access log wants the
	// flag either way.
	inv.res, inv.stage = res, invokeSettled
	if res.Err != nil {
		writeError(w, MapError(res.Err, fn.cfg.QueueDeadline), res.Err)
		return
	}
	inv.stage = invokeCompleted
	writeInvoke(sw, module, payloadBytes)
}

// writeInvoke answers a completed invoke: 200, the record's headers (which
// render the generated request id), then the InvokeResponse body.
func writeInvoke(sw *statusWriter, module string, payloadBytes int64) {
	sw.WriteHeader(http.StatusOK)
	inv := &sw.invoke
	sw.resp = InvokeResponse{
		Module:       module,
		RequestID:    inv.reqID,
		Cold:         inv.res.Cold,
		Attempts:     inv.res.Attempts,
		LatencyMs:    float64(inv.res.Latency) / 1e6,
		QueueWaitMs:  float64(inv.res.QueueWait) / 1e6,
		RetryWaitMs:  float64(inv.res.RetryWait) / 1e6,
		PayloadBytes: payloadBytes,
		TraceSampled: inv.res.TraceSampled,
	}
	_ = json.NewEncoder(sw).Encode(&sw.resp)
}

// lazyFunction creates module's function from the lazy template. Unknown
// workload names surface as *workloads.UnknownWorkloadError so the caller can
// 404 them.
func (s *Server) lazyFunction(ctx context.Context, module string) (*Function, error) {
	if s.draining.Load() {
		return nil, ErrBridgeDraining
	}
	fc := *s.cfg.LazyTemplate
	fc.Module = module
	return s.addFunction(ctx, fc, true)
}

// isUnknownWorkload reports whether err names no workload module. Its target
// lives here, not in handleInvoke, so only a failed lazy deploy allocates it.
func isUnknownWorkload(err error) bool {
	var unknown *workloads.UnknownWorkloadError
	return errors.As(err, &unknown)
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while the flush completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":      state,
		"uptime_ms":   time.Since(s.started).Milliseconds(),
		"sim_time_ms": float64(s.bridge.SimNow()) / 1e6,
		"in_flight":   s.bridge.InFlight(),
	})
}

// handleMetrics serves the live Prometheus exposition: the same registry
// the offline harness snapshots at end of run, scraped mid-flight.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, s.tele.Snapshot())
}

// handleTrace serves the span log as Chrome trace-event JSON, loadable in
// Perfetto while the server runs.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, s.tele.Tracer().Spans())
}

// TimeSeriesResponse is the body of GET /v1/timeseries.
type TimeSeriesResponse struct {
	IntervalNs int64          `json:"interval_ns"`
	Stats      tsdb.Stats     `json:"stats"`
	Windows    []*tsdb.Window `json:"windows"`
}

// handleTimeSeries serves the retained windows. The read is lock-free
// (atomically published immutable windows), so scraping it cannot stall the
// bridge loop; at dilation 0 the same request script always yields
// byte-identical bodies.
func (s *Server) handleTimeSeries(w http.ResponseWriter, r *http.Request) {
	if s.db == nil {
		writeError(w, ErrorMapping{http.StatusNotFound, "timeseries_disabled", 0},
			errors.New("gateway: time-series sampling disabled (set SampleInterval)"))
		return
	}
	writeJSON(w, http.StatusOK, TimeSeriesResponse{
		IntervalNs: s.db.Interval(),
		Stats:      s.db.Stats(),
		Windows:    s.db.Windows(0),
	})
}

// NodeStatus is one node of GET /v1/cluster.
type NodeStatus struct {
	Name            string `json:"name"`
	Alive           bool   `json:"alive"`
	Pods            int    `json:"pods"`
	MemUsedBytes    int64  `json:"mem_used_bytes"`
	MemTotalBytes   int64  `json:"mem_total_bytes"`
	BeyondIdleBytes int64  `json:"beyond_idle_bytes"`
}

// FunctionStatus is one function of GET /v1/cluster.
type FunctionStatus struct {
	Module          string                `json:"module"`
	Profile         string                `json:"profile"`
	Node            string                `json:"node"`
	PoolSize        int                   `json:"pool_size"`
	PoolIdle        int                   `json:"pool_idle"`
	PoolLeased      int                   `json:"pool_leased"`
	PoolMemoryBytes int64                 `json:"pool_memory_bytes"`
	ChargedBytes    int64                 `json:"charged_bytes"`
	SharedBytes     int64                 `json:"shared_bytes"`
	QueueLen        int                   `json:"queue_len"`
	InFlight        int                   `json:"in_flight"`
	Draining        bool                  `json:"draining"`
	Stats           serve.DispatcherStats `json:"stats"`
}

// RouterStatus summarizes the sharded dispatch layer in GET /v1/cluster.
type RouterStatus struct {
	Shards          int   `json:"shards"`
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	MaxBatch        int64 `json:"max_batch"`
}

// ClusterStatus is the body of GET /v1/cluster.
type ClusterStatus struct {
	SimTimeMs  float64          `json:"sim_time_ms"`
	Dilation   float64          `json:"dilation"`
	Nodes      []NodeStatus     `json:"nodes"`
	Functions  []FunctionStatus `json:"functions"`
	Router     RouterStatus     `json:"router"`
	Containers int              `json:"containers"`
}

// handleCluster is the introspection surface: node memory from the
// simulated OS, pool/dispatcher state from the serving layer. Pools,
// dispatchers, and node memory accounting all live on the bridge loop's side
// of the threading contract, so the whole read runs there via Bridge.Do.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := ClusterStatus{
		SimTimeMs: float64(s.bridge.SimNow()) / 1e6,
		Dilation:  s.cfg.Bridge.Dilation,
	}
	err := s.bridge.Do(r.Context(), func() {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		podsByNode := map[string]int{}
		for _, p := range s.cluster.API.Pods() {
			podsByNode[p.Spec.NodeName]++
		}
		st.Containers = len(s.containers)
		for _, n := range s.cluster.Nodes {
			free := n.OS.Free()
			st.Nodes = append(st.Nodes, NodeStatus{
				Name:            n.Name,
				Alive:           n.Alive(),
				Pods:            podsByNode[n.Name],
				MemUsedBytes:    free.UsedBytes,
				MemTotalBytes:   free.TotalBytes,
				BeyondIdleBytes: n.OS.UsedBeyondIdle(),
			})
		}
		rs := s.router.Stats()
		st.Router = RouterStatus{
			Shards:          len(rs.Shards),
			Batches:         rs.Batches,
			BatchedRequests: rs.BatchedRequests,
			MaxBatch:        rs.MaxBatch,
		}
		for _, fn := range s.Functions() {
			pool, disp := fn.Pool(), fn.Dispatcher()
			st.Functions = append(st.Functions, FunctionStatus{
				Module:          fn.cfg.Module,
				Profile:         fn.cfg.Profile,
				Node:            fn.Node(),
				PoolSize:        fn.cfg.PoolSize,
				PoolIdle:        pool.Idle(),
				PoolLeased:      pool.Leased(),
				PoolMemoryBytes: pool.MemoryBytes(),
				ChargedBytes:    fn.rep.ChargedBytes(),
				SharedBytes:     fn.rep.SharedBytes(),
				QueueLen:        disp.QueueLen(),
				InFlight:        disp.InFlight(),
				Draining:        disp.Draining(),
				Stats:           disp.Stats(),
			})
		}
	})
	if err != nil {
		writeError(w, MapError(err, 0), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// NodeFailResponse is the body of POST /v1/cluster/nodes/{node}/fail.
type NodeFailResponse struct {
	Node string `json:"node"`
	// Rehomed lists the functions whose memory charge moved to a surviving
	// node, in module order.
	Rehomed []string `json:"rehomed"`
}

// handleNodeFail kills one node fail-stop: the control plane marks it dead
// and fails its pods, and every function charged to that node is re-homed
// (Replica.Rehome) to a surviving node picked by artifact locality. The
// serving state (pool, dispatcher, router shard) is untouched, so in-flight
// and subsequent invokes keep completing across the failure; only the
// placement moves. Idempotent: failing a dead node re-homes nothing and
// returns 200. An unknown node is 404; with no survivor to re-home to (the
// last live node died) the answer is 503 no_live_node — the pools keep
// serving, charged to the dead node.
func (s *Server) handleNodeFail(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("node")
	resp := NodeFailResponse{Node: name}
	var unknownErr, rehomeErr error
	err := s.bridge.Do(r.Context(), func() {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		// FailNode's only error is an unknown node name.
		if unknownErr = s.cluster.FailNode(name); unknownErr != nil {
			return
		}
		s.cluster.Run()
		// Deterministic re-home order: module-name sorted.
		for _, fn := range s.Functions() {
			if fn.Node() != name {
				continue
			}
			m := fn.cfg.Module
			arts := fn.rep.Pool().SharedArtifacts()
			target := cluster.PickNode(s.cluster.Nodes, arts[:])
			if target < 0 {
				rehomeErr = fmt.Errorf("gateway: re-home %s: %w", m, cluster.ErrNoLiveNode)
				return
			}
			if err := fn.rep.Rehome(s.cluster.Nodes[target]); err != nil {
				rehomeErr = fmt.Errorf("gateway: re-home %s: %w", m, err)
				return
			}
			resp.Rehomed = append(resp.Rehomed, m)
		}
	})
	switch {
	case err != nil:
		writeError(w, MapError(err, 0), err)
	case unknownErr != nil:
		writeError(w, ErrorMapping{http.StatusNotFound, "unknown_node", 0}, unknownErr)
	case rehomeErr != nil:
		writeError(w, MapError(rehomeErr, 0), rehomeErr)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}
