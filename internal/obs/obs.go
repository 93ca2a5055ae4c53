// Package obs is the repository's telemetry layer: an atomic,
// allocation-free-on-hot-path metrics registry (monotonic counters, gauges,
// mergeable log-linear histograms) and a bounded span tracer covering
// the full request lifecycle — loadgen arrival, dispatcher
// queue wait, pool acquire (warm hit vs cold start), engine instantiate
// (with the module cache's decode/validate/lower and hit/miss split), guest
// invoke (instructions consumed, trap info), and copy-on-write reset (dirty
// pages copied). Two exporters turn a run into files: Prometheus text
// exposition (WritePrometheus) and Chrome trace-event JSON
// (WriteChromeTrace, loadable in chrome://tracing or Perfetto).
//
// The tracer keeps the spans it retains as a log of varint-encoded spans in
// 4 KiB byte chunks, about 17 bytes a request span, its strings interned in
// a bounded table of its own; the collector never scans span data.
//
// A component that already counts in a Stats() struct does not count again
// here: it registers one source (Registry.SetSource) reporting those numbers
// when a snapshot is taken, and same-name reports add up. Stored handles
// remain for histograms and for components with no books of their own.
//
// The disabled path is free by construction: every instrumented component
// holds pre-resolved handles (possibly nil) and each handle method no-ops on
// a nil receiver with zero allocations — enforced by
// BenchmarkInvokeTelemetryDisabled and the Makefile obs-overhead gate. Span
// emission is additionally guarded by an `if tracer != nil` at every call
// site. The enabled path does not allocate either: Span encodes its
// attributes into the log rather than retaining them
// (BenchmarkInvokeTelemetryEnabled, the same gate).
package obs

import "strings"

// Telemetry bundles the metrics registry and the span tracer. A nil
// *Telemetry is the disabled state: every accessor returns nil handles whose
// methods no-op.
type Telemetry struct {
	metrics *Registry
	tracer  *Tracer
}

// Config shapes a Telemetry instance; its tracer takes NewTracer's defaults.
type Config struct{}

// New creates an enabled Telemetry.
func New(Config) *Telemetry {
	return &Telemetry{metrics: NewRegistry(), tracer: NewTracer(0, nil)}
}

// Metrics returns the registry (nil when disabled).
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Tracer returns the span tracer (nil when disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Counter resolves a counter handle; nil when disabled.
func (t *Telemetry) Counter(name string) *Counter { return t.Metrics().Counter(name) }

// Gauge resolves a gauge handle; nil when disabled.
func (t *Telemetry) Gauge(name string) *Gauge { return t.Metrics().Gauge(name) }

// Histogram resolves a histogram handle; nil when disabled.
func (t *Telemetry) Histogram(name string) *Histogram { return t.Metrics().Histogram(name) }

// Snapshot dumps the registry (empty when disabled).
func (t *Telemetry) Snapshot() Snapshot { return t.Metrics().Snapshot() }

// labelEscaper is built once: metric sources format their labeled names on
// every scrape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labeled renders a metric name with one label pair in Prometheus form:
// Labeled("pool_warm_hits_total", "engine", "wamr") →
// `pool_warm_hits_total{engine="wamr"}`. Additional pairs append to an
// already-labeled name.
func Labeled(name, key, value string) string {
	value = labelEscaper.Replace(value)
	if i := strings.LastIndexByte(name, '}'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}

// Labeled2 renders a metric name with two label pairs, in argument order:
// Labeled2("cluster_routed_total", "module", "m", "node", "worker-0") →
// `cluster_routed_total{module="m",node="worker-0"}`. The cluster serving
// layer uses this for its {module, node} metric grid.
func Labeled2(name, k1, v1, k2, v2 string) string {
	return Labeled(Labeled(name, k1, v1), k2, v2)
}
