package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/workloads"
)

// testDCfg is the dispatcher shape the cluster tests share: queued admission
// with modest concurrency so replica ramps pay visible cold starts.
func testDCfg() serve.DispatcherConfig {
	return serve.DispatcherConfig{
		MaxConcurrency: 2,
		QueueDepth:     1 << 12,
		Policy:         serve.PolicyQueue,
		Export:         "handle",
		Arg:            4,
	}
}

// newTestServing builds a serving cluster with n handler-variant modules
// deployed (none placed — placement is lazy).
func newTestServing(t *testing.T, cfg Config, nmods int) (*Serving, []string) {
	t.Helper()
	if cfg.Dispatcher.Export == "" {
		cfg.Dispatcher = testDCfg()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	modules := make([]string, 0, nmods)
	for i := 0; i < nmods; i++ {
		name := fmt.Sprintf("%s%d", workloads.HandlerVariantPrefix, i)
		bin, err := workloads.Binary(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Deploy(name, bin); err != nil {
			t.Fatal(err)
		}
		modules = append(modules, name)
	}
	return s, modules
}

// drive runs one uniform RunMulti load script against the cluster.
func drive(t *testing.T, s *Serving, modules []string) serve.Report {
	t.Helper()
	rep, err := serve.RunMulti(s.Engine(), s, serve.MultiConfig{
		RatePerSec: 5000,
		Duration:   200 * time.Millisecond,
		Seed:       42,
		Modules:    modules,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// conserve checks the outcome identity over the aggregate stats.
func conserve(t *testing.T, rs serve.RouterStats) {
	t.Helper()
	a := rs.Aggregate
	if a.Submitted != a.Completed+a.Rejected+a.Expired+a.Failed {
		t.Fatalf("conservation: submitted %d != completed %d + rejected %d + expired %d + failed %d",
			a.Submitted, a.Completed, a.Rejected, a.Expired, a.Failed)
	}
}

// TestLocalityBeatsSpread is the tentpole's core claim at unit scale: on a
// 4-node cluster, locality placement holds fewer shared-artifact copies and
// pays fewer cold starts than blind spread, at equal completed work.
func TestLocalityBeatsSpread(t *testing.T) {
	run := func(p Policy) (*Serving, serve.Report) {
		// Pools start cold (PoolSize 0); the armed autoscaler warms each
		// replica once its queue builds, so a replica pays cold starts only
		// during its ramp — the per-node ramp tax spread placement multiplies.
		s, modules := newTestServing(t, Config{
			Nodes:             4,
			Profile:           engine.WAMR,
			Policy:            p,
			AutoscaleInterval: 5 * time.Millisecond,
		}, 6)
		s.Arm(10 * time.Second)
		rep := drive(t, s, modules)
		return s, rep
	}
	loc, locRep := run(PolicyLocality)
	spr, sprRep := run(PolicySpread)

	if locRep.Offered != sprRep.Offered {
		t.Fatalf("offered diverged: locality %d, spread %d", locRep.Offered, sprRep.Offered)
	}
	conserve(t, loc.Stats())
	conserve(t, spr.Stats())
	if c := loc.Stats().Aggregate.Completed; c == 0 {
		t.Fatal("locality completed nothing")
	}

	locBytes, locCopies := loc.SharedArtifactBytes()
	sprBytes, sprCopies := spr.SharedArtifactBytes()
	if locCopies >= sprCopies {
		t.Fatalf("artifact copies: locality %d >= spread %d", locCopies, sprCopies)
	}
	if locBytes >= sprBytes {
		t.Fatalf("shared artifact bytes: locality %d >= spread %d", locBytes, sprBytes)
	}
	if lc, sc := loc.ColdStarts(), spr.ColdStarts(); lc == 0 || lc >= sc {
		t.Fatalf("cold starts: locality %d, spread %d — want 0 < locality < spread", lc, sc)
	}
	if placed := spr.ScaleStats().Placed; placed != 24 {
		t.Fatalf("spread placed %d replicas, want 24", placed)
	}
	if placed := loc.ScaleStats().Placed; placed != 6 {
		t.Fatalf("locality placed %d replicas, want 6", placed)
	}
}

// TestFailoverDrainRePlaceReRoute: killing the hosting node mid-run drains
// its in-flight work, re-places the module on the survivor, and re-routes
// the tail of the traffic — with the outcome identity intact across the
// handoff.
func TestFailoverDrainRePlaceReRoute(t *testing.T) {
	s, modules := newTestServing(t, Config{Nodes: 2, Profile: engine.WAMR}, 1)
	sim := s.Engine()
	m := modules[0]

	var submitErrs int
	for i := 0; i < 400; i++ {
		at := des.Time(i) * des.Time(100*time.Microsecond) // 40ms of arrivals
		sim.At(at, func() {
			if err := s.Submit(m, 0, nil); err != nil {
				submitErrs++
			}
		})
	}
	sim.At(des.Time(time.Millisecond), func() {
		nodes := s.ReplicaNodes(m)
		if len(nodes) != 1 || nodes[0] != "worker-0" {
			t.Errorf("before failure: replica on %v, want [worker-0]", nodes)
		}
	})
	sim.At(des.Time(20*time.Millisecond), func() {
		if err := s.FailNode(0); err != nil {
			t.Errorf("FailNode: %v", err)
		}
	})
	sim.Run()

	if submitErrs != 0 {
		t.Fatalf("%d submissions were refused", submitErrs)
	}
	if s.NodeAlive(0) || !s.NodeAlive(1) {
		t.Fatal("node liveness not reflecting the failure")
	}
	if nodes := s.ReplicaNodes(m); len(nodes) != 1 || nodes[0] != "worker-1" {
		t.Fatalf("after failure: replica on %v, want [worker-1]", nodes)
	}
	sc := s.ScaleStats()
	if sc.RePlaced != 1 || sc.Placed != 2 {
		t.Fatalf("placements = %+v, want Placed 2 with RePlaced 1", sc)
	}
	rs := s.Stats()
	conserve(t, rs)
	if rs.Aggregate.Submitted != 400 {
		t.Fatalf("submitted %d, want all 400 (none lost across failover)", rs.Aggregate.Submitted)
	}
	routed := s.RoutedByNode()
	if routed[0] == 0 || routed[1] == 0 {
		t.Fatalf("routed by node = %v, want both nodes to have served", routed)
	}
	if routed[0]+routed[1] != 400 {
		t.Fatalf("routed %d + %d != 400", routed[0], routed[1])
	}
	if !s.Quiesced() {
		t.Fatal("routers not quiescent after run")
	}
	// A second failure killing the last node leaves nothing to serve on.
	if err := s.FailNode(1); err != nil {
		t.Logf("FailNode(1): %v (no survivor to re-place on)", err)
	}
	if err := s.Submit(m, 0, nil); !errors.Is(err, ErrNoLiveNode) {
		t.Fatalf("submit on dead cluster: err = %v, want ErrNoLiveNode", err)
	}
}

// TestAutoscalerGrowsAndShrinks: a burst builds the queue and the autoscaler
// doubles the hot replica's pool up to maxPoolSize; once traffic stops, every
// shrinkAfter idle ticks halve it. With AutoscaleInterval 0 the pool never
// moves.
func TestAutoscalerGrowsAndShrinks(t *testing.T) {
	const (
		every   = 5 * time.Millisecond
		horizon = 3 * time.Second // room for two shrinkAfter idle stretches
	)
	for _, tc := range []struct {
		name     string
		interval time.Duration
	}{{"armed", every}, {"off", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			dcfg := testDCfg()
			dcfg.MaxConcurrency = 1
			s, modules := newTestServing(t, Config{
				Nodes:             1,
				Profile:           engine.WAMR,
				PoolSize:          1, // pre-warmed: service time is warm-path, not a 2.6s cold ramp
				Dispatcher:        dcfg,
				AutoscaleInterval: tc.interval,
			}, 1)
			sim := s.Engine()
			m := modules[0]
			s.Arm(horizon)
			for i := 0; i < 300; i++ {
				at := des.Time(i) * des.Time(50*time.Microsecond) // 15ms burst
				sim.At(at, func() {
					if err := s.Submit(m, 0, nil); err != nil {
						t.Errorf("submit: %v", err)
					}
				})
			}
			// Sample the pool's target between ticks, once per interval.
			var targets []int
			for at := every / 2; at < horizon; at += every {
				sim.At(des.Time(at), func() {
					if live := s.modules[m].live; len(live) == 1 {
						targets = append(targets, live[0].pool.TargetSize())
					}
				})
			}
			sim.Run()
			conserve(t, s.Stats())

			sc := s.ScaleStats()
			if tc.interval == 0 {
				for _, n := range targets {
					if n != 1 {
						t.Fatalf("unarmed autoscaler resized the pool to %d", n)
					}
				}
				if sc.Ups != 0 || sc.Downs != 0 {
					t.Fatalf("unarmed autoscaler acted: %+v", sc)
				}
				return
			}
			// 1 -> 2 -> 4 -> 8, then no further growth.
			if sc.Ups != 3 {
				t.Fatalf("ups = %d, want 3 doublings from 1 to %d", sc.Ups, maxPoolSize)
			}
			peak, downs := 0, []int{}
			for i, n := range targets {
				peak = max(peak, n)
				if i > 0 && n < targets[i-1] {
					if n != targets[i-1]/2 {
						t.Fatalf("shrink %d -> %d, want a halving", targets[i-1], n)
					}
					downs = append(downs, i)
				}
			}
			if peak != maxPoolSize {
				t.Fatalf("peak pool = %d, want maxPoolSize %d", peak, maxPoolSize)
			}
			if len(downs) < 2 || sc.Downs != len(downs) {
				t.Fatalf("shrinks seen at samples %v, ScaleStats %+v: want at least two", downs, sc)
			}
			for i := 1; i < len(downs); i++ {
				if gap := downs[i] - downs[i-1]; gap != shrinkAfter {
					t.Fatalf("shrinks %d ticks apart, want shrinkAfter %d", gap, shrinkAfter)
				}
			}
		})
	}
}

// TestClusterDeterminism: the same scenario — Zipf traffic, a pressure
// episode, a node death — replays to identical outcome stats, routing
// counts, and artifact accounting.
func TestClusterDeterminism(t *testing.T) {
	type fingerprint struct {
		stats  serve.RouterStats
		routed []int64
		bytes  int64
		copies int
		cold   int64
		scale  ScaleStats
	}
	run := func() fingerprint {
		s, modules := newTestServing(t, Config{Nodes: 3, Profile: engine.WAMR}, 4)
		in := faults.New(faults.Config{
			Seed:        7,
			TrapRate:    0.01,
			PressureAt:  []time.Duration{30 * time.Millisecond},
			NodeDeathAt: []time.Duration{60 * time.Millisecond},
		})
		s.SetFaultInjector(in)
		in.ArmPressure(s.Engine(), func() { s.MemoryPressure(0) })
		in.ArmNodeDeath(s.Engine(), func(int) {
			if err := s.FailNode(0); err != nil {
				t.Errorf("FailNode: %v", err)
			}
		})
		rep, err := serve.RunMulti(s.Engine(), s, serve.MultiConfig{
			RatePerSec: 3000,
			Duration:   100 * time.Millisecond,
			Seed:       11,
			Modules:    modules,
			ZipfS:      1.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Offered == 0 {
			t.Fatal("no load generated")
		}
		conserve(t, s.Stats())
		bytes, copies := s.SharedArtifactBytes()
		return fingerprint{
			stats:  s.Stats(),
			routed: s.RoutedByNode(),
			bytes:  bytes,
			copies: copies,
			cold:   s.ColdStarts(),
			scale:  s.ScaleStats(),
		}
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("replay diverged:\n run 1: %+v\n run 2: %+v", a, b)
	}
	if a.scale.RePlaced == 0 {
		t.Fatal("node death re-placed nothing")
	}
}

// TestDeployValidation covers the registration edges.
func TestDeployValidation(t *testing.T) {
	s, modules := newTestServing(t, Config{Nodes: 1, Profile: engine.WAMR}, 1)
	bin, err := workloads.Binary(modules[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(modules[0], bin); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
	if err := s.Submit("nope", 0, nil); !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("unknown module: err = %v, want ErrUnknownModule", err)
	}
	if err := s.FailNode(9); err == nil {
		t.Fatal("FailNode out of range accepted")
	}
	if got := s.Modules(); len(got) != 1 || got[0] != modules[0] {
		t.Fatalf("Modules() = %v", got)
	}
}

// TestServingReplicasShareNodeEngine: every replica on a node runs on the
// node's one engine, so two modules compile into one cache and a second
// replica of a binary the node has already compiled is a cache hit.
func TestServingReplicasShareNodeEngine(t *testing.T) {
	s, modules := newTestServing(t, Config{Nodes: 1, Profile: engine.WAMR}, 2)
	bin, err := workloads.Binary(modules[0])
	if err != nil {
		t.Fatal(err)
	}
	const again = "first-module-again"
	if err := s.Deploy(again, bin); err != nil {
		t.Fatal(err)
	}
	for _, name := range append(modules, again) {
		if err := s.Submit(name, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	conserve(t, s.Stats())

	eng := s.nodes[0].eng
	for _, name := range s.Modules() {
		live := s.modules[name].live
		if len(live) != 1 || live[0].pool.Engine() != eng {
			t.Fatalf("%s: %d live replicas, or one on an engine of its own", name, len(live))
		}
	}
	if st := eng.CacheStats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("node cache after three placements of two binaries: %+v", st)
	}
}
