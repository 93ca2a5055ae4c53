package simos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func newTestNode() *Node {
	return NewNode(NodeConfig{
		Name: "test", RAMBytes: 8 * GiB, Cores: 4,
		BaseSystemBytes: 512 * MiB, BaseCacheBytes: 128 * MiB,
	})
}

func TestSpawnAndMemoryAccounting(t *testing.T) {
	n := newTestNode()
	p, err := n.Spawn("svc", "/pods/p1")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MapPrivate(10 * MiB); err != nil {
		t.Fatal(err)
	}
	if got := p.PrivateBytes(); got != 10*MiB {
		t.Fatalf("private = %d, want %d", got, 10*MiB)
	}
	free := n.Free()
	wantUsed := 512*MiB + 128*MiB + 10*MiB
	if free.UsedBytes != wantUsed {
		t.Fatalf("used = %d, want %d", free.UsedBytes, wantUsed)
	}
	if n.UsedBeyondIdle() != 10*MiB {
		t.Fatalf("beyond idle = %d", n.UsedBeyondIdle())
	}
}

func TestSharedLibraryCountedOnce(t *testing.T) {
	n := newTestNode()
	var procs []*Process
	for i := 0; i < 10; i++ {
		p, err := n.Spawn("crun", "/pods/shared")
		if err != nil {
			t.Fatal(err)
		}
		p.MapShared("libwamr.so", 2*MiB)
		procs = append(procs, p)
	}
	// Ten processes map the same 2 MiB library: the node pays once.
	if got := n.UsedBeyondIdle(); got != 2*MiB {
		t.Fatalf("beyond idle = %d, want %d (library charged once)", got, 2*MiB)
	}
	// RSS attributes a proportional share to each process.
	if rss := procs[0].RSS(); rss != 2*MiB/10 {
		t.Fatalf("rss share = %d, want %d", rss, 2*MiB/10)
	}
	// Last process exiting releases the library.
	for _, p := range procs {
		p.Exit()
	}
	if got := n.UsedBeyondIdle(); got != 0 {
		t.Fatalf("after exits, beyond idle = %d, want 0", got)
	}
	if len(n.SharedLibs()) != 0 {
		t.Fatal("library not released")
	}
}

func TestCgroupHierarchyCharging(t *testing.T) {
	n := newTestNode()
	p1, _ := n.Spawn("app1", "/kubepods/pod1/ctr1")
	p2, _ := n.Spawn("app2", "/kubepods/pod1/ctr2")
	p3, _ := n.Spawn("app3", "/kubepods/pod2/ctr1")
	p1.MapPrivate(4 * MiB)
	p2.MapPrivate(6 * MiB)
	p3.MapPrivate(10 * MiB)
	p1.ChargeCache(1 * MiB)

	pod1, ok := n.Cgroup("/kubepods/pod1")
	if !ok {
		t.Fatal("pod1 cgroup missing")
	}
	if got := pod1.MemoryCurrent(); got != 11*MiB {
		t.Fatalf("pod1 memory.current = %d, want %d", got, 11*MiB)
	}
	root, _ := n.Cgroup("/kubepods")
	if got := root.MemoryCurrent(); got != 21*MiB {
		t.Fatalf("kubepods memory.current = %d, want %d", got, 21*MiB)
	}
	// The metrics-server view (cgroup) excludes base system memory; the free
	// view includes it.
	if free := n.Free(); free.UsedBytes <= root.MemoryCurrent() {
		t.Fatal("free view should exceed cgroup view")
	}
}

func TestExitReleasesEverything(t *testing.T) {
	n := newTestNode()
	p, _ := n.Spawn("tmp", "/pods/x")
	p.MapPrivate(20 * MiB)
	p.ChargeCache(5 * MiB)
	p.MapShared("libpython3.so", 3*MiB)
	p.Exit()
	if n.UsedBeyondIdle() != 0 {
		t.Fatalf("leaked %d bytes after exit", n.UsedBeyondIdle())
	}
	if n.NumProcesses() != 0 {
		t.Fatal("process still listed")
	}
	// Double exit is harmless.
	p.Exit()
}

func TestOutOfMemory(t *testing.T) {
	n := NewNode(NodeConfig{RAMBytes: 1 * GiB, Cores: 1, BaseSystemBytes: 900 * MiB})
	p, err := n.Spawn("big", "/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MapPrivate(500 * MiB); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestPageRounding(t *testing.T) {
	if RoundPages(1) != PageSize {
		t.Fatalf("RoundPages(1) = %d", RoundPages(1))
	}
	if RoundPages(PageSize) != PageSize {
		t.Fatalf("RoundPages(PageSize) = %d", RoundPages(PageSize))
	}
	if RoundPages(PageSize+1) != 2*PageSize {
		t.Fatalf("RoundPages(PageSize+1) = %d", RoundPages(PageSize+1))
	}
	if RoundPages(0) != 0 || RoundPages(-5) != 0 {
		t.Fatal("non-positive rounding")
	}
}

func TestCgroupRemoval(t *testing.T) {
	n := newTestNode()
	p, _ := n.Spawn("a", "/pods/gone")
	if err := n.RemoveCgroup("/pods/gone"); err == nil {
		t.Fatal("removed non-empty cgroup")
	}
	p.Exit()
	if err := n.RemoveCgroup("/pods/gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Cgroup("/pods/gone"); ok {
		t.Fatal("cgroup still present")
	}
	if err := n.RemoveCgroup("/pods/gone"); !errors.Is(err, ErrNoSuchCgroup) {
		t.Fatalf("expected ErrNoSuchCgroup, got %v", err)
	}
}

func TestProcessListing(t *testing.T) {
	n := newTestNode()
	z, _ := n.Spawn("z-proc", "/a")
	a, _ := n.Spawn("a-proc", "/b")
	if n.NumProcesses() != 2 || z.PID >= a.PID {
		t.Fatalf("%d processes, pids %d then %d", n.NumProcesses(), z.PID, a.PID)
	}
	if got, ok := n.Process(a.PID); !ok || got != a {
		t.Fatalf("lookup of pid %d = %v, %v", a.PID, got, ok)
	}
}

// Property: memory accounting is conservative — after any sequence of
// spawn/map/share/cache/exit operations, exiting everything returns the
// node to its idle baseline.
func TestPropertyMemoryConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		n := newTestNode()
		var procs []*Process
		for _, op := range ops {
			switch op % 5 {
			case 0:
				p, err := n.Spawn("p", "/g/cg")
				if err != nil {
					return false
				}
				procs = append(procs, p)
			case 1:
				if len(procs) > 0 {
					procs[int(op)%len(procs)].MapPrivate(int64(op) * 1024)
				}
			case 2:
				if len(procs) > 0 {
					procs[int(op)%len(procs)].MapShared("lib"+string(rune('a'+op%3)), int64(op+1)*2048)
				}
			case 3:
				if len(procs) > 0 {
					procs[int(op)%len(procs)].ChargeCache(int64(op) * 512)
				}
			case 4:
				if len(procs) > 0 {
					i := int(op) % len(procs)
					procs[i].Exit()
					procs = append(procs[:i], procs[i+1:]...)
				}
			}
		}
		for _, p := range procs {
			p.Exit()
		}
		return n.UsedBeyondIdle() == 0 && n.NumProcesses() == 0 && len(n.SharedLibs()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the free view always exceeds or equals the cgroup view of any
// subtree, since free additionally counts base system memory.
func TestPropertyFreeDominatesCgroups(t *testing.T) {
	f := func(privates []uint16) bool {
		n := newTestNode()
		for i, pv := range privates {
			if i >= 30 {
				break
			}
			p, err := n.Spawn("w", "/kubepods/pod")
			if err != nil {
				return false
			}
			if err := p.MapPrivate(int64(pv) * 256); err != nil {
				return false
			}
		}
		cg, ok := n.Cgroup("/kubepods")
		if !ok {
			return len(privates) == 0
		}
		return n.Free().UsedBytes >= cg.MemoryCurrent()+n.Config().BaseSystemBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// scanUsed recomputes whole-system used memory the way usedLocked did
// before the running totals: one pass over every process and library.
func scanUsed(n *Node) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	used := n.cfg.BaseSystemBytes + n.cfg.BaseCacheBytes + n.cacheBytes
	for _, p := range n.procs {
		used += p.privateBytes
	}
	for _, lib := range n.libs {
		used += lib.Bytes
	}
	return used
}

// refModel is the reference the running totals and the mapping records are
// checked against: plain maps of what each live process holds.
type refModel struct {
	private, cache map[*Process]int64
	mapped         map[*Process]map[string]bool
	libs           map[string]*SharedLib // name -> bytes and refs
	idle           int64
}

func (m *refModel) used() int64 {
	u := m.idle
	for p := range m.private {
		u += m.private[p] + m.cache[p]
	}
	for _, lib := range m.libs {
		u += lib.Bytes
	}
	return u
}

func (m *refModel) spawn(p *Process) {
	m.private[p], m.cache[p], m.mapped[p] = 0, 0, map[string]bool{}
}

func (m *refModel) mapShared(p *Process, name string, bytes int64) {
	lib, ok := m.libs[name]
	if !ok {
		lib = &SharedLib{Name: name, Bytes: RoundPages(bytes)}
		m.libs[name] = lib
	}
	if !m.mapped[p][name] {
		m.mapped[p][name] = true
		lib.refs++
	}
}

func (m *refModel) exit(p *Process) {
	for name := range m.mapped[p] {
		if m.libs[name].refs--; m.libs[name].refs == 0 {
			delete(m.libs, name)
		}
	}
	delete(m.private, p)
	delete(m.cache, p)
	delete(m.mapped, p)
}

func (m *refModel) rss(p *Process) int64 {
	rss := m.private[p]
	for name := range m.mapped[p] {
		rss += m.libs[name].Bytes / int64(m.libs[name].refs)
	}
	return rss
}

// check compares the node with the model after one step.
func (m *refModel) check(t *testing.T, n *Node, where string) {
	t.Helper()
	if got, want := n.UsedBeyondIdle(), m.used()-m.idle; got != want {
		t.Fatalf("%s: UsedBeyondIdle %d, model %d", where, got, want)
	}
	for p := range m.private {
		if got, want := p.RSS(), m.rss(p); got != want {
			t.Fatalf("%s: pid %d RSS %d, model %d", where, p.PID, got, want)
		}
	}
	want := []SharedLib{}
	for _, lib := range m.libs {
		want = append(want, *lib)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
	if got := n.SharedLibs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SharedLibs %+v, model %+v", where, got, want)
	}
	for _, name := range []string{"liba", "libb", "libc", "libd"} {
		if got, want := n.HasSharedLib(name), m.libs[name] != nil; got != want {
			t.Fatalf("%s: HasSharedLib(%s) = %v, model %v", where, name, got, want)
		}
	}
}

// Property: the running private/library totals equal a full scan after
// every operation, and admission refuses exactly the operation the scan
// would have refused. The node is small so sequences cross the RAM limit.
// Each step also keeps RSS, SharedLibs, HasSharedLib and UsedBeyondIdle
// equal to a reference model, with one library often mapped twice into one
// process (which must hold one ref).
func TestPropertyRunningTotalsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNode(NodeConfig{
			Name: "tiny", RAMBytes: 3 * MiB, Cores: 1,
			BaseSystemBytes: 1 * MiB, BaseCacheBytes: 256 * KiB,
		})
		ram := n.Config().RAMBytes
		m := &refModel{
			private: map[*Process]int64{}, cache: map[*Process]int64{},
			mapped: map[*Process]map[string]bool{}, libs: map[string]*SharedLib{},
			idle: 1*MiB + 256*KiB,
		}
		var procs, exited []*Process
		pick := func() *Process { return procs[rng.Intn(len(procs))] }
		for step := 0; step < 400; step++ {
			op := rng.Intn(8)
			if len(procs) == 0 {
				op = 0
			}
			before := scanUsed(n)
			if before != m.used() {
				t.Fatalf("seed %d step %d: scan %d, model %d", seed, step, before, m.used())
			}
			switch op {
			case 0:
				p, err := n.Spawn("p", "/g/cg")
				if wantOOM := before >= ram; (err != nil) != wantOOM || (err != nil && !errors.Is(err, ErrOutOfMemory)) {
					t.Fatalf("seed %d step %d: Spawn err=%v at used=%d ram=%d", seed, step, err, before, ram)
				}
				if err == nil {
					procs = append(procs, p)
					m.spawn(p)
				}
			case 1, 2:
				b := int64(rng.Intn(int(512 * KiB)))
				p := pick()
				err := p.MapPrivate(b)
				if wantOOM := before+RoundPages(b) > ram; (err != nil) != wantOOM || (err != nil && !errors.Is(err, ErrOutOfMemory)) {
					t.Fatalf("seed %d step %d: MapPrivate(%d) err=%v at used=%d ram=%d", seed, step, b, err, before, ram)
				}
				if err == nil {
					m.private[p] += RoundPages(b)
				}
			case 3:
				// Often more than the process holds: the clamp must reach the total too.
				p := pick()
				b := int64(rng.Intn(int(1 * MiB)))
				p.UnmapPrivate(b)
				m.private[p] -= min(RoundPages(b), m.private[p])
			case 4:
				// Three names, so several processes share one library, and
				// one process often maps a name it already holds.
				p, name, b := pick(), "lib"+string(rune('a'+rng.Intn(3))), int64(rng.Intn(int(128*KiB)))+1
				p.MapShared(name, b)
				m.mapShared(p, name, b)
			case 5:
				p, b := pick(), int64(rng.Intn(int(64*KiB)))
				p.ChargeCache(b)
				m.cache[p] += RoundPages(b)
			case 6:
				i := rng.Intn(len(procs))
				procs[i].Exit()
				m.exit(procs[i])
				exited = append(exited, procs[i])
				procs = append(procs[:i], procs[i+1:]...)
			case 7:
				if len(exited) > 0 {
					p := exited[rng.Intn(len(exited))]
					p.Exit()
					p.UnmapPrivate(4096)
					if err := p.MapPrivate(4096); !errors.Is(err, ErrNoSuchProcess) {
						t.Fatalf("seed %d step %d: MapPrivate on exited process = %v", seed, step, err)
					}
				}
			}
			if got, want := n.Free().UsedBytes, scanUsed(n); got != want {
				t.Fatalf("seed %d step %d op %d: running total %d, full scan %d", seed, step, op, got, want)
			}
			m.check(t, n, fmt.Sprintf("seed %d step %d op %d", seed, step, op))
		}
		for _, p := range procs {
			p.Exit()
		}
		if n.UsedBeyondIdle() != 0 || scanUsed(n) != n.Free().UsedBytes || len(n.SharedLibs()) != 0 {
			t.Fatalf("seed %d: node not idle after exiting everything: beyond idle %d", seed, n.UsedBeyondIdle())
		}
	}
}

// TestMapSharedAllocs: a process's mapping record is one slice with room for
// four libraries, so mapping four resident libraries (each twice) allocates
// once per process.
func TestMapSharedAllocs(t *testing.T) {
	n := newTestNode()
	names := []string{"libwamr.so", "wasm-code:x", "wasm-data:x", "wasm-tier1:x"}
	resident, _ := n.Spawn("resident", "/system.slice/r")
	for _, name := range names {
		resident.MapShared(name, 64*KiB)
	}
	procs := make([]*Process, 101)
	for i := range procs {
		procs[i], _ = n.Spawn("p", "/kubepods/p")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p := procs[i]
		i++
		for _, name := range names {
			p.MapShared(name, 64*KiB)
			p.MapShared(name, 64*KiB)
		}
	})
	if allocs > 1 {
		t.Fatalf("mapping four libraries allocates %.1f times per process, want at most 1", allocs)
	}
	for _, lib := range n.SharedLibs() {
		if lib.refs != 102 {
			t.Fatalf("%s holds %d refs, want one per process (102)", lib.Name, lib.refs)
		}
	}
}

// BenchmarkSpawnMapPrivate measures one Spawn + MapPrivate + Exit on a node
// that already holds N processes: ns/op must not grow with N.
func BenchmarkSpawnMapPrivate(b *testing.B) {
	for _, procs := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("%dprocs", procs), func(b *testing.B) {
			n := NewNode(DefaultNodeConfig())
			for i := 0; i < procs; i++ {
				p, err := n.Spawn("resident", "/kubepods/resident")
				if err != nil {
					b.Fatal(err)
				}
				if err := p.MapPrivate(64 * KiB); err != nil {
					b.Fatal(err)
				}
				p.MapShared("libwamr.so", 2*MiB)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := n.Spawn("pod", "/kubepods/bench")
				if err != nil {
					b.Fatal(err)
				}
				if err := p.MapPrivate(160 * KiB); err != nil {
					b.Fatal(err)
				}
				p.Exit()
			}
		})
	}
}
