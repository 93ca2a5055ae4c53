package cluster

import (
	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/serve"
)

// Replica is one module instance on one node: warm pool, dispatcher, and the
// attachment that charges the pool to the node. It is the one place the
// memory-accounting rule lives — a shared artifact (compiled code, baseline
// data image, tier-1 code) is charged once per node, only the private
// remainder per instance — together with the two ways a replica leaves a
// node that died: Rehome moves the charge and keeps the pool serving, Retire
// drains the pool and then drops the charge. Everything here runs on the one
// goroutine driving sim.
type Replica struct {
	sim  *des.Engine
	pool *serve.Pool
	disp *serve.Dispatcher
	tele *obs.Telemetry

	// name is the attachment name (cgroup /kubepods/warmpool-<name>); node
	// and att are rewritten by Rehome. mapped is the shared-artifact sum
	// already mapped through att.
	name   string
	node   *k8s.WorkerNode
	att    *k8s.WarmPoolAttachment
	mapped int64
}

// NewReplica builds a replica of the compiled module on node: warm pool on
// eng, the node attachment with its shared/private charge split and
// memory-pressure drainer, and the dispatcher on sim. tele may be nil.
func NewReplica(sim *des.Engine, eng *engine.Engine, cm *engine.CompiledModule, node *k8s.WorkerNode,
	name string, pcfg serve.Config, dcfg serve.DispatcherConfig, tele *obs.Telemetry) (*Replica, error) {
	pool, err := serve.NewPool(eng, cm, pcfg)
	if err != nil {
		return nil, err
	}
	r := &Replica{sim: sim, pool: pool, tele: tele, name: name}
	if err := r.attach(node); err != nil {
		return nil, err
	}
	pool.SetMemoryListener(r.syncCharge)
	r.disp = serve.NewDispatcher(sim, pool, dcfg)
	r.disp.SetObserver(tele)
	return r, nil
}

// attach points the replica's charge at a fresh attachment on node.
func (r *Replica) attach(node *k8s.WorkerNode) error {
	att, err := node.AttachWarmPool(r.name)
	if err != nil {
		return err
	}
	att.SetObserver(r.tele)
	att.SetDrainer(r.drainIdle)
	r.node, r.att, r.mapped = node, att, 0
	return nil
}

// syncCharge is the pool's memory listener: it splits the pool's accounted
// bytes into node-shared artifacts (mapped once per node however many pools
// share them) and the per-instance private remainder on the current
// attachment. Artifacts are write-once, so the shared mappings are touched
// only when their sum grew or the attachment is new. It runs with the pool
// lock held on every accounted-memory change, so it must not call back into
// the locked pool surface.
func (r *Replica) syncCharge(total int64) {
	arts := r.pool.SharedArtifacts()
	shared := sumBytes(arts)
	if shared != r.mapped {
		for _, a := range arts {
			r.att.SyncShared(a.Name, a.Bytes)
		}
		r.mapped = shared
	}
	r.att.Sync(total - shared)
}

func sumBytes(arts [3]engine.SharedArtifact) int64 {
	return arts[0].Bytes + arts[1].Bytes + arts[2].Bytes
}

// drainIdle is the attachment's memory-pressure response.
func (r *Replica) drainIdle() int { return r.pool.DrainIdle(r.sim.Now()) }

// Rehome moves the replica's memory charge to node and detaches it from the
// node it was on. Pool, dispatcher and any router shard are untouched, so
// in-flight and subsequent requests keep completing; only the placement
// moves. On error the replica stays where it was.
func (r *Replica) Rehome(node *k8s.WorkerNode) error {
	old := r.att
	if err := r.attach(node); err != nil {
		return err
	}
	old.SetDrainer(nil)
	old.Detach()
	r.syncCharge(r.pool.MemoryBytes())
	return nil
}

// Retire takes the replica out of service with connection-drain semantics:
// new submissions are refused, queued and in-flight requests run to
// completion, then the pool gives up its idle instances through the
// still-attached listener and its charge leaves the node. The replica's
// counters keep reporting (its metric sources stay registered); its
// instances must not.
func (r *Replica) Retire() {
	r.disp.SetDraining(true)
	finish := func() {
		_, _ = r.pool.Resize(0) // shrinking never instantiates, so it cannot fail
		r.pool.SetMemoryListener(nil)
		r.att.SetDrainer(nil)
		r.att.Detach()
	}
	if r.disp.Quiesced() {
		finish()
		return
	}
	r.disp.SetQuiesceHook(func() {
		r.disp.SetQuiesceHook(nil)
		finish()
	})
}

// Pool exposes the replica's warm pool.
func (r *Replica) Pool() *serve.Pool { return r.pool }

// Dispatcher exposes the replica's dispatcher.
func (r *Replica) Dispatcher() *serve.Dispatcher { return r.disp }

// Node is the node currently charged for the replica.
func (r *Replica) Node() *k8s.WorkerNode { return r.node }

// ChargedBytes is the private bytes the replica's attachment carries.
func (r *Replica) ChargedBytes() int64 { return r.att.ChargedBytes() }

// SharedBytes sums the replica's node-shared artifact sizes (charged to the
// node once per artifact name, outside ChargedBytes).
func (r *Replica) SharedBytes() int64 { return sumBytes(r.pool.SharedArtifacts()) }

// PickNode scores live nodes for a module's shared artifacts and returns the
// best one's index, or -1 when no candidate is alive: a node already holding
// the module's artifacts beats an empty one (each is charged once per node,
// so stacking replicas is free), free memory breaks ties, and node order
// makes the choice deterministic.
func PickNode(nodes []*k8s.WorkerNode, artifacts []engine.SharedArtifact) int {
	best, bestScore, bestFree := -1, -1, int64(-1)
	for i, n := range nodes {
		if !n.Alive() {
			continue
		}
		score := 0
		for _, a := range artifacts {
			if n.OS.HasSharedLib(a.Name) {
				score++
			}
		}
		free := n.OS.Free().AvailableBytes
		if score > bestScore || (score == bestScore && free > bestFree) {
			best, bestScore, bestFree = i, score, free
		}
	}
	return best
}
