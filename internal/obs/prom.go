package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// Version is the exposition-level build version stamped into
// continuum_build_info. It tracks the repository's PR sequence rather than a
// release tag.
const Version = "0.9"

// helpText is the # HELP line of each documented metric base name.
var helpText = map[string]string{
	"continuum_build_info":            "Build metadata; value is always 1.",
	"dispatch_submitted_total":        "Requests offered to a dispatcher.",
	"dispatch_completed_total":        "Requests that ran to completion.",
	"dispatch_rejected_total":         "Requests refused at admission.",
	"dispatch_expired_total":          "Queued requests dropped past their deadline.",
	"dispatch_failed_total":           "Requests whose every attempt errored.",
	"dispatch_retries_total":          "Retry attempts scheduled after failures.",
	"dispatch_latency_ns":             "End-to-end simulated request latency.",
	"dispatch_queue_wait_ns":          "Simulated time spent parked in the wait queue.",
	"dispatch_queue_depth":            "Requests parked in wait queues, summed over dispatchers.",
	"dispatch_in_flight":              "Requests holding a concurrency slot, summed over dispatchers.",
	"pool_idle_instances":             "Warm instances waiting in pools, summed over pools.",
	"pool_leased_instances":           "Instances out serving requests, summed over pools.",
	"pool_memory_bytes":               "Accounted pool memory, summed over pools (an artifact two pools share counts in each).",
	"modcache_resident_bytes":         "Charged cost of resident compiled modules, summed over caches.",
	"modcache_tier1_bytes":            "Tier-1 share of modcache_resident_bytes.",
	"gateway_http_requests_total":     "HTTP requests served by the gateway front door.",
	"gateway_http_errors_total":       "HTTP responses with status >= 400.",
	"gateway_wall_latency_ns":         "Wall-clock HTTP request latency.",
	"router_submitted_total":          "Requests routed to a module shard.",
	"router_completed_total":          "Routed requests that ran to completion.",
	"router_batches_total":            "Coalesced submission batches flushed.",
	"router_batched_requests_total":   "Requests admitted through coalesced batches.",
	"router_shards":                   "Registered module shards.",
	"trace_tail_kept_tracks_total":    "Request trace tracks committed by the tail sampler.",
	"trace_tail_sampled_out_total":    "Healthy request trace tracks dropped at finish.",
	"trace_tail_evicted_tracks_total": "Pending trace tracks evicted under the memory bound.",
	"tsdb_windows_total":              "Time-series windows sampled.",
	"go_goroutines":                   "Live goroutines in the continuumd process.",
	"go_heap_alloc_bytes":             "Bytes of allocated heap objects.",
	"go_heap_sys_bytes":               "Bytes of heap obtained from the OS.",
	"go_gc_pause_total_ns":            "Cumulative GC stop-the-world pause time.",
	"go_gc_cycles_total":              "Completed GC cycles.",
}

// StampBuildInfo sets the conventional continuum_build_info gauge (value 1,
// labels carrying the version and Go toolchain) on the registry. The serving
// entry points (gateway, continuumd) call it so every exposition carries
// build identity; pure-library registries stay unpolluted.
func StampBuildInfo(r *Registry) {
	if r == nil {
		return
	}
	name := Labeled(Labeled("continuum_build_info", "version", Version),
		"go_version", runtime.Version())
	r.Gauge(name).Set(1)
}

// splitName separates a Labeled metric name into its base name and label
// block: `x{a="b"}` → ("x", `a="b"`). Unlabeled names return an empty label
// block.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// sortLabels rewrites a label block with its pairs in key order, so the
// exposition is deterministic regardless of the order Labeled calls appended
// them. Pairs are split on top-level commas (quoted values may contain
// commas and escaped quotes).
func sortLabels(labels string) string {
	if labels == "" {
		return ""
	}
	var pairs []string
	start, inQuote := 0, false
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				pairs = append(pairs, labels[start:i])
				start = i + 1
			}
		}
	}
	pairs = append(pairs, labels[start:])
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// promLine renders one sample, merging extra label pairs into the name's
// label block.
func promLine(w io.Writer, base, labels, extra string, value int64) error {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all != "" {
		_, err := fmt.Fprintf(w, "%s{%s} %d\n", base, all, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", base, value)
	return err
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative `_bucket{le=...}` series with `_sum` and `_count`. Labeled
// names produced by Labeled() keep their label blocks with pairs
// deterministically sorted by key; the histogram `le` label merges into
// them. Metrics sharing a base name emit one # HELP (when registered) and
// one # TYPE line.
func WritePrometheus(w io.Writer, s Snapshot) error {
	typed := map[string]bool{}
	header := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		if h := helpText[base]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, c := range s.Counters {
		base, labels := splitName(c.Name)
		if err := header(base, "counter"); err != nil {
			return err
		}
		if err := promLine(w, base, sortLabels(labels), "", c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		base, labels := splitName(g.Name)
		if err := header(base, "gauge"); err != nil {
			return err
		}
		if err := promLine(w, base, sortLabels(labels), "", g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		if err := header(base, "histogram"); err != nil {
			return err
		}
		labels = sortLabels(labels)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if err := promLine(w, base+"_bucket", labels,
				fmt.Sprintf("le=%q", fmt.Sprintf("%d", b.UpperBound)), cum); err != nil {
				return err
			}
		}
		if err := promLine(w, base+"_bucket", labels, `le="+Inf"`, h.Count); err != nil {
			return err
		}
		if err := promLine(w, base+"_sum", labels, "", h.Sum); err != nil {
			return err
		}
		if err := promLine(w, base+"_count", labels, "", h.Count); err != nil {
			return err
		}
	}
	return nil
}
