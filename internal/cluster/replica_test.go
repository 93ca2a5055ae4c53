package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/simos"
	"wasmcontainers/internal/wasm/cache"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// TestReplicaChargeLifecycle walks the unit that owns the accounting rule
// through its whole life — build, invoke, Rehome, invoke, Retire — and after
// every step checks each node's books: what the node holds beyond idle is
// exactly one copy of each shared artifact plus every hosted replica's
// private remainder. A node a replica left is back at its pre-attach figure.
// The second row stacks two replicas of one module on one node: the shared
// artifacts must still be charged once. The third serves enough requests for
// the default hotness policy to tier up mid-traffic: wasm-t1 joins the serving
// node's mappings once, and Rehome re-maps all three artifacts on the target.
// A retired replica keeps its counters but not its instances: the pool is
// left holding only the shared artifacts.
func TestReplicaChargeLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		invokes  int // per replica per traffic step
		tierUp   bool
	}{
		{"one replica", 1, 3, false},
		{"two replicas of one module on one node", 2, 3, false},
		{"tier-up mid-traffic under the hotness policy", 1, 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kc := k8s.DefaultClusterConfig()
			kc.NumNodes = 2
			k, err := k8s.NewCluster(kc)
			if err != nil {
				t.Fatal(err)
			}
			sim, src, dst := k.Engine, k.Nodes[0], k.Nodes[1]
			idle := []int64{src.OS.UsedBeyondIdle(), dst.OS.UsedBeyondIdle()}

			// grow_touch grows 8 pages and dirties them all: every invoke moves
			// the pool's accounted memory up and, on release, back down.
			bin, err := workloads.Binary("memory-bound")
			if err != nil {
				t.Fatal(err)
			}
			dcfg := serve.DispatcherConfig{
				MaxConcurrency: 2, QueueDepth: 16, Policy: serve.PolicyQueue,
				Export: "grow_touch", Arg: 8,
			}
			nodeCache := cache.New(engine.DefaultModuleCacheBytes)
			var reps []*Replica
			for i := 0; i < tc.replicas; i++ {
				eng := engine.NewWithCache(engine.WAMR, nodeCache)
				cm, err := eng.Compile(bin)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewReplica(sim, eng, cm, src, fmt.Sprintf("memory-bound-%d", i),
					serve.Config{Size: 2}, dcfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
			}

			// check asserts the books of node n, which hosts `hosted`: the wasm-*
			// shared mappings are exactly one module's artifacts, each once, and
			// the node holds that one copy plus each replica's page-rounded
			// private remainder — no more (nothing charged twice, nothing left
			// behind) and no less (the pools' accounted memory is covered).
			check := func(step string, n *k8s.WorkerNode, idle int64, hosted []*Replica) {
				t.Helper()
				want := map[string]int64{}
				var wantUsed int64
				for i, r := range hosted {
					if r.Node() != n {
						t.Fatalf("%s: replica on %s, want %s", step, r.Node().Name, n.Name)
					}
					if i == 0 {
						for _, a := range r.Pool().SharedArtifacts() {
							if a.Bytes > 0 {
								want[a.Name] = simos.RoundPages(a.Bytes)
								wantUsed += want[a.Name]
							}
						}
					}
					private := simos.RoundPages(r.Pool().MemoryBytes() - r.SharedBytes())
					if got := r.ChargedBytes(); got != private {
						t.Fatalf("%s: replica %d private charge %d, want pool %d - shared %d page-rounded = %d",
							step, i, got, r.Pool().MemoryBytes(), r.SharedBytes(), private)
					}
					wantUsed += private
				}
				got := map[string]int64{}
				for _, lib := range n.OS.SharedLibs() {
					if strings.HasPrefix(lib.Name, "wasm-") {
						got[lib.Name] += lib.Bytes
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s maps wasm artifacts %v, want each of %v once", step, n.Name, got, want)
				}
				if used := n.OS.UsedBeyondIdle() - idle; used != wantUsed {
					t.Fatalf("%s: %s holds %d beyond idle, want %d", step, n.Name, used, wantUsed)
				}
			}
			invokeAll := func(step string) {
				t.Helper()
				completed := 0
				for _, r := range reps {
					for i := 0; i < tc.invokes; i++ {
						r.Dispatcher().Submit(func(res serve.RequestResult) {
							if res.Err == nil {
								completed++
							}
						})
					}
				}
				sim.Run()
				if want := tc.invokes * len(reps); completed != want {
					t.Fatalf("%s: %d of %d invokes completed", step, completed, want)
				}
			}

			check("build", src, idle[0], reps)
			check("build", dst, idle[1], nil)
			invokeAll("invoke")
			check("invoke", src, idle[0], reps)
			if t1 := reps[0].Pool().SharedArtifacts()[engine.ArtifactTier1]; (t1.Bytes > 0) != tc.tierUp {
				t.Fatalf("after traffic %s is %d bytes, want tiered up = %v", t1.Name, t1.Bytes, tc.tierUp)
			}

			for i, r := range reps {
				if err := r.Rehome(dst); err != nil {
					t.Fatal(err)
				}
				check("rehome", src, idle[0], reps[i+1:])
				check("rehome", dst, idle[1], reps[:i+1])
			}
			invokeAll("invoke after rehome")
			check("invoke after rehome", src, idle[0], nil)
			check("invoke after rehome", dst, idle[1], reps)

			for i, r := range reps {
				r.Retire()
				check("retire", dst, idle[1], reps[i+1:])
				if idle, mem := r.Pool().Idle(), r.Pool().MemoryBytes(); idle != 0 || mem != r.SharedBytes() {
					t.Fatalf("retired replica %d keeps %d idle instances and %d bytes, want 0 and the shared artifacts' %d",
						i, idle, mem, r.SharedBytes())
				}
				var refused error
				r.Dispatcher().Submit(func(res serve.RequestResult) { refused = res.Err })
				if refused == nil {
					t.Fatal("retired replica admitted a request")
				}
			}
		})
	}
}

// TestReplicaRequestAllocs pins the request path's accounting cost: after
// tier-up, Acquire -> Invoke -> Release on a real Replica fires the memory
// listener twice, and with the artifact names formatted once at Compile and
// the shared mappings touched only when they grow, splitting the charge
// allocates nothing — what remains is the invoke's own argument and result
// slices.
func TestReplicaRequestAllocs(t *testing.T) {
	k, err := k8s.NewCluster(k8s.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	bin, err := workloads.Binary("request-handler")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WAMR)
	cm, err := eng.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(k.Engine, eng, cm, k.Nodes[0], "request-handler",
		serve.Config{Size: 1}, serve.DispatcherConfig{MaxConcurrency: 1, Export: "handle"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := r.Pool()
	request := func() {
		wi, ok := pool.Acquire(0)
		if !ok {
			t.Fatal("pool dry")
		}
		if _, err := wi.Invoke("handle", exec.I32(64)); err != nil {
			t.Fatal(err)
		}
		pool.Release(wi, 0)
	}
	for i := 0; i < 16; i++ {
		request()
	}
	if pool.SharedArtifacts()[engine.ArtifactTier1].Bytes <= 0 {
		t.Fatal("hotness policy did not tier up")
	}
	if got := testing.AllocsPerRun(200, request); got > 4 {
		t.Fatalf("%.0f allocs per request, want <= 4", got)
	}
}
