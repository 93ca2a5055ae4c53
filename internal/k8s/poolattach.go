package k8s

import (
	"fmt"
	"sync/atomic"

	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/simos"
)

// WarmPoolAttachment makes an in-process warm instance pool (internal/serve)
// visible to the cluster's memory accounting. The pool's accounted bytes are
// mirrored into a dedicated process under the node's /kubepods cgroup
// hierarchy, so the kubelet, the metrics-server vantage
// (MetricsServer.TotalWorkloadBytes) and the node's free-memory vantage all
// see pooled instances exactly like they see pod memory in the density
// experiments.
type WarmPoolAttachment struct {
	node *WorkerNode
	proc *simos.Process

	// charged is the private bytes currently mapped; pressureEvicted counts
	// instances given up to pressure drains. Both are written on the pool's
	// goroutine and atomic so the metric source can read them from a scrape.
	charged         atomic.Int64
	pressureEvicted atomic.Int64

	// drain is the pool's memory-pressure response; nil until SetDrainer.
	drain Drainer

	tele *obs.Telemetry
	// names are attachmentSeries labeled with the pool's name, carved from
	// one string.
	names [len(attachmentSeries)]string
}

// attachmentSeries are the attachment's two series, in Collect's order.
var attachmentSeries = [...]string{"warmpool_charged_bytes", "warmpool_pressure_evictions_total"}

// Drainer is a pool's memory-pressure response: DrainIdle gives up the
// pool's idle instances and reports how many it gave up.
type Drainer interface {
	DrainIdle() int
}

// AttachWarmPool spawns the gateway process that will carry the pool's
// memory charge on this node. name distinguishes multiple pools; the process
// lands in cgroup /kubepods/warmpool-<name>.
func (n *WorkerNode) AttachWarmPool(name string) (*WarmPoolAttachment, error) {
	const parent = "/kubepods/"
	cgroup := parent + "warmpool-" + name // the process name is its last element
	proc, err := n.OS.Spawn(cgroup[len(parent):], cgroup)
	if err != nil {
		return nil, fmt.Errorf("k8s: attach warm pool %s: %w", name, err)
	}
	a := &WarmPoolAttachment{node: n, proc: proc}
	obs.LabeledNames(a.names[:], attachmentSeries[:], "pool", name)
	n.attachments = append(n.attachments, a)
	return a, nil
}

// SetObserver registers a metric source reporting the private bytes the
// attachment carries in the node's cgroup hierarchy as the
// warmpool_charged_bytes{pool=...} gauge and the instances given up to
// pressure drains as warmpool_pressure_evictions_total{pool=...}. A detached
// attachment keeps reporting (zero bytes, its final count), so a re-homed
// pool's counter under the same name never steps back. A second call moves
// the source; nil removes it (the default).
func (a *WarmPoolAttachment) SetObserver(t *obs.Telemetry) {
	a.tele.Metrics().RemoveSource(a)
	a.tele = t
	t.Metrics().AddSource(a)
}

// Collect is the attachment's metric source (obs.Source).
func (a *WarmPoolAttachment) Collect(counter, gauge func(string, int64)) {
	gauge(a.names[0], a.charged.Load())
	counter(a.names[1], a.pressureEvicted.Load())
}

// Sync sets the attachment's charge to the pool's current accounted bytes,
// page-rounded like every other mapping on the simulated node. Pass it to
// serve.Pool.SetMemoryListener so every pool change lands in the cgroup
// hierarchy as it happens.
func (a *WarmPoolAttachment) Sync(bytes int64) {
	t, charged := simos.RoundPages(bytes), a.charged.Load()
	switch {
	case t > charged:
		if err := a.proc.MapPrivate(t - charged); err != nil {
			// Node out of memory: carry what fits; the shortfall stays
			// uncharged, mirroring an over-committed host.
			return
		}
	case t < charged:
		a.proc.UnmapPrivate(charged - t)
	}
	a.charged.Store(t)
}

// SyncShared maps a digest-keyed read-only artifact of the pool's module —
// compiled code (wasm-code:<digest>) or the baseline memory image
// (wasm-data:<digest>) — as a shared mapping, exactly like the engine's
// shared library: the node accounts one copy per name no matter how many
// pools or container runtimes map it. Pair it with Sync carrying only the
// pool's private remainder (serve.Pool.MemoryBytes minus the artifact
// bytes) to split a pool's charge between per-node shared state and
// per-instance private state.
func (a *WarmPoolAttachment) SyncShared(name string, bytes int64) {
	if bytes <= 0 {
		return
	}
	a.proc.MapShared(name, bytes)
}

// ChargedBytes returns the private bytes currently mapped for the pool
// (shared artifacts mapped via SyncShared are accounted node-wide, not
// here).
func (a *WarmPoolAttachment) ChargedBytes() int64 { return a.charged.Load() }

// SetDrainer registers the pool's memory-pressure response — the owner of
// the pool, draining it through serve.Pool.DrainIdle — so node-level
// pressure episodes can reclaim the pool's idle instances through the
// attachment. Pass nil to unregister.
func (a *WarmPoolAttachment) SetDrainer(d Drainer) { a.drain = d }

// Drain invokes the registered drainer (no-op without one) and returns how
// many instances the pool gave up. The freed bytes flow back through the
// pool's memory listener into Sync, so the node's cgroup charge shrinks in
// the same step.
func (a *WarmPoolAttachment) Drain() int {
	if a.drain == nil {
		return 0
	}
	n := a.drain.DrainIdle()
	a.pressureEvicted.Add(int64(n))
	return n
}

// MemoryPressure simulates a kubelet memory-pressure episode on this node:
// warm-pool idle instances — the cheapest reclaimable memory on the node —
// are drained from every attached pool before the kubelet would have to
// start failing pods. Returns the total number of instances evicted.
func (n *WorkerNode) MemoryPressure() int {
	total := 0
	for _, a := range n.attachments {
		total += a.Drain()
	}
	return total
}

// Detach releases the charge, exits the carrier process, and removes the
// attachment from the node's pressure-drain list.
func (a *WarmPoolAttachment) Detach() {
	a.Sync(0)
	a.proc.Exit()
	for i, att := range a.node.attachments {
		if att == a {
			a.node.attachments = append(a.node.attachments[:i], a.node.attachments[i+1:]...)
			break
		}
	}
}
