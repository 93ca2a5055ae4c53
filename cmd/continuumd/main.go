// Command continuumd is the deployment framework's network front door: a
// net/http server exposing function invoke and a minimal Docker-API-shaped
// control surface over the simulated cluster, with live Prometheus metrics.
// The simulation keeps costing guest execution; real concurrent connections
// drive admission through the gateway's real-time DES bridge.
//
// Usage:
//
//	continuumd                              # serve on 127.0.0.1:8080, real time
//	continuumd -addr :9000 -dilation 0      # as-fast-as-possible virtual time
//	continuumd -modules request-handler,cpu-bound -pool 8
//	continuumd -lazy                        # create functions on first request
//	continuumd -lazy -modules "" -pool 8    # lazy functions shaped by the function flags
//	continuumd -log-format json             # structured access log (one JSON object per request)
//	continuumd -debug-addr 127.0.0.1:6060   # pprof + Go runtime gauges in /metrics
//
// Endpoints:
//
//	POST /v1/functions/{module}     invoke (body = payload; timing headers)
//	POST /v1/containers/create      Docker-shaped create (body = {"Image","Runtime"})
//	POST /v1/containers/{id}/start  drive the pod to Running
//	GET  /v1/containers/json        list (?all=1 includes non-running)
//	GET  /v1/containers/{id}/stats  cgroup memory via the metrics-server
//	GET  /v1/cluster                node/pool/dispatcher introspection
//	GET  /metrics                   live Prometheus exposition
//	GET  /v1/trace                  Chrome trace-event JSON of the span log
//	GET  /v1/timeseries             retained metric windows (counters, gauges, histograms)
//	GET  /healthz                   liveness; 503 while draining
//
// SIGTERM/SIGINT starts a graceful drain: new work is refused with 503,
// in-flight requests flush, then the final dispatcher stats (and the
// admission identity check) are printed and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wasmcontainers/internal/gateway"
	"wasmcontainers/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		dilation     = flag.Float64("dilation", 1.0, "wall seconds per simulated second (0 = as fast as possible)")
		submitBuf    = flag.Int("submit-buffer", 256, "bridge submission channel bound (backpressure)")
		nodes        = flag.Int("nodes", 1, "simulated cluster nodes")
		accessLog    = flag.Bool("access-log", true, "log one line per request to stderr")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		finalMetrics = flag.String("final-metrics", "", "write the final Prometheus snapshot to this path on shutdown")
		logFormat    = flag.String("log-format", "text", "access log format: text or json")
		sampleInt    = flag.Duration("sample-interval", time.Second, "simulated window length for /v1/timeseries (0 = sampling off)")
		sampleCap    = flag.Int("sample-capacity", 0, "retained time-series windows (0 = default)")
		tailSample   = flag.Bool("tail-sample", false, "tail-based trace sampling: keep span trees only for errors and latency outliers")
		tailLatency  = flag.Duration("tail-latency", 0, "simulated latency above which a healthy trace is still kept (0 = errors only)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and sample Go runtime gauges on this address (empty = off)")
		functions    = functionFlags(flag.CommandLine)
	)
	flag.Parse()

	cfg := gateway.Config{
		Bridge:          gateway.BridgeConfig{Dilation: *dilation, SubmitBuffer: *submitBuf},
		ClusterNodes:    *nodes,
		AccessLogFormat: *logFormat,
		SampleInterval:  *sampleInt,
		SampleCapacity:  *sampleCap,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	if *tailSample {
		cfg.TailSampling = &obs.TailConfig{LatencyThreshold: *tailLatency}
	}
	cfg.Functions, cfg.LazyTemplate = functions()

	if *debugAddr != "" {
		// The collector needs the registry before the gateway builds one, so
		// construct the telemetry here and hand it in.
		tele := obs.New(obs.Config{})
		cfg.Telemetry = tele
		if err := startDebug(*debugAddr, tele.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "continuumd: debug server: %v\n", err)
			os.Exit(1)
		}
	}

	code, err := serveUntilSignal(cfg, *addr, *drainTimeout, *finalMetrics, os.Stderr, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// serveUntilSignal runs the gateway until SIGTERM/SIGINT, then drains
// gracefully and reports final stats on logw. ready (if non-nil) receives the
// bound address once the listener is up and the signal handler is installed.
func serveUntilSignal(cfg gateway.Config, addr string, drainTimeout time.Duration, finalMetrics string, logw io.Writer, ready chan<- string) (int, error) {
	gw, err := gateway.New(cfg)
	if err != nil {
		return 1, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return 1, err
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	gw.Start()
	srv := &http.Server{Handler: gw}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(logw, "continuumd: listening on %s (dilation %g, %d function(s))\n",
		ln.Addr(), cfg.Bridge.Dilation, len(cfg.Functions))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-sigCh:
		fmt.Fprintf(logw, "continuumd: %s, draining (budget %s)\n", sig, drainTimeout)
	case err := <-serveErr:
		return 1, fmt.Errorf("continuumd: serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := gw.Shutdown(ctx)
	_ = srv.Shutdown(ctx)

	code := 0
	if drainErr != nil {
		fmt.Fprintf(logw, "continuumd: drain incomplete: %v\n", drainErr)
		code = 1
	}
	for _, fn := range gw.Functions() {
		st := fn.Dispatcher().Stats()
		ok := st.IdentityHolds()
		fmt.Fprintf(logw,
			"continuumd: %s submitted=%d completed=%d rejected=%d expired=%d failed=%d identity=%v\n",
			fn.Module(), st.Submitted, st.Completed, st.Rejected, st.Expired, st.Failed, ok)
		if !ok {
			code = 1
		}
	}
	if finalMetrics != "" {
		f, err := os.Create(finalMetrics)
		if err != nil {
			return 1, err
		}
		if err := obs.WritePrometheus(f, gw.Telemetry().Snapshot()); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
		fmt.Fprintf(logw, "continuumd: final metrics written to %s\n", finalMetrics)
	}
	return code, nil
}

// functionFlags registers the per-function flags on fs and returns the step
// that turns their parsed values into the functions to register and, under
// -lazy, the template on-demand functions copy. Both are copies of one
// template built from the flags, so a lazy function has the shape the flags
// describe also when -modules is empty.
func functionFlags(fs *flag.FlagSet) func() ([]gateway.FunctionConfig, *gateway.FunctionConfig) {
	var (
		modules    = fs.String("modules", "request-handler", "comma-separated workload modules to serve")
		profile    = fs.String("profile", "wamr", "engine profile for every function (wamr, wasmtime, wasmer, wasmedge)")
		poolSize   = fs.Int("pool", 4, "warm pool size per function (0 = cold-only)")
		conc       = fs.Int("concurrency", 4, "max in-flight requests per function")
		queueDepth = fs.Int("queue-depth", 64, "dispatcher wait-queue depth")
		queueDl    = fs.Duration("queue-deadline", time.Second, "max simulated queue wait before expiry")
		retries    = fs.Int("retries", 0, "retry attempts for failed invokes")
		reqTimeout = fs.Duration("request-timeout", 0, "per-request retry budget (0 = unbounded)")
		lazy       = fs.Bool("lazy", false, "create functions on first request for any resolvable module (router shards added live)")
	)
	return func() ([]gateway.FunctionConfig, *gateway.FunctionConfig) {
		tmpl := gateway.DefaultFunction()
		tmpl.Profile = *profile
		tmpl.PoolSize = *poolSize
		tmpl.MaxConcurrency = *conc
		tmpl.QueueDepth = *queueDepth
		tmpl.QueueDeadline = *queueDl
		tmpl.MaxRetries = *retries
		tmpl.RequestTimeout = *reqTimeout
		var fns []gateway.FunctionConfig
		for _, m := range strings.Split(*modules, ",") {
			if m = strings.TrimSpace(m); m != "" {
				fc := tmpl
				fc.Module = m
				fns = append(fns, fc)
			}
		}
		if !*lazy {
			return fns, nil
		}
		return fns, &tmpl
	}
}
