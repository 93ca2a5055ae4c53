// Package simos models a Linux worker node at the granularity the paper
// measures: processes with private (anonymous) memory, shared libraries
// whose resident text is counted once per node, a cgroup-v2 hierarchy that
// charges workload memory the way the Kubernetes metrics-server reads it,
// and a `free`-style whole-system view that additionally sees base system
// daemons, page cache, and buffers. The difference between the two vantage
// points — `free` reporting up to ~40% more than the metrics server — is an
// explicit, inspectable property of this model, mirroring Figures 3 vs 4 of
// the paper.
package simos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Byte size helpers.
const (
	KiB int64 = 1024
	MiB int64 = 1024 * KiB
	GiB int64 = 1024 * MiB
	// PageSize is the x86-64 page size used for rounding.
	PageSize int64 = 4096
)

// RoundPages rounds n up to whole pages.
func RoundPages(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize * PageSize
}

// NodeConfig describes the simulated machine (defaults follow the paper's
// testbed: Intel Xeon Silver 4210R, 20 cores, 256 GB RAM).
type NodeConfig struct {
	Name     string
	RAMBytes int64
	Cores    int
	// BaseSystemBytes is memory used by the kernel, systemd, kubelet,
	// containerd daemon, and friends before any pod runs.
	BaseSystemBytes int64
	// BaseCacheBytes is page cache/buffers present at idle.
	BaseCacheBytes int64
}

// DefaultNodeConfig returns the paper's evaluation machine.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Name:            "worker-0",
		RAMBytes:        256 * GiB,
		Cores:           20,
		BaseSystemBytes: 1400 * MiB,
		BaseCacheBytes:  800 * MiB,
	}
}

// Node is a simulated machine.
type Node struct {
	mu  sync.Mutex
	cfg NodeConfig

	nextPID int
	procs   map[int]*Process
	libs    map[string]*SharedLib

	rootCg *Cgroup
	cgs    map[string]*Cgroup

	// cacheBytes is current page cache beyond the idle baseline (grows with
	// image layers and container filesystems).
	cacheBytes int64
	// privateBytes and libBytes are running totals: the sum of every live
	// process's privateBytes, and of every resident library's Bytes. Each
	// site that changes a term changes the total by the same amount, so
	// usedLocked is a sum of five fields whatever the node's population.
	privateBytes int64
	libBytes     int64
}

// NewNode creates a node from cfg.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		cfg:     cfg,
		nextPID: 1,
		procs:   make(map[int]*Process),
		libs:    make(map[string]*SharedLib),
		cgs:     make(map[string]*Cgroup),
	}
	n.rootCg = &Cgroup{Path: "/", node: n}
	n.cgs["/"] = n.rootCg
	return n
}

// Config returns the node configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// SharedLib is a dynamically-loaded library (or a shared executable text
// segment). Resident bytes are counted once per node while mapped by at
// least one process — this is the mechanism behind the paper's crun-WAMR
// "dynamic library loading" memory advantage.
type SharedLib struct {
	Name  string
	Bytes int64
	refs  int
}

// Process is a simulated OS process.
type Process struct {
	PID  int
	Name string
	node *Node
	cg   *Cgroup
	// privateBytes is anonymous memory private to this process (heap,
	// stacks, JIT code caches, guard-page-backed reservations that were
	// touched).
	privateBytes int64
	// cacheBytes is page cache attributed to this process's cgroup (e.g.
	// its container layer files), charged cgroup-style to the first toucher.
	cacheBytes int64
	// libs holds one ref per mapped library, allocated on the first
	// MapShared: a process maps a handful, so a scan beats a map.
	libs   []*SharedLib
	exited bool
}

// Cgroup is a node in the cgroup-v2 hierarchy.
type Cgroup struct {
	Path     string
	node     *Node
	parent   *Cgroup
	children []*Cgroup
	procs    []*Process
}

// Errors.
var (
	ErrNoSuchProcess = errors.New("simos: no such process")
	ErrNoSuchCgroup  = errors.New("simos: no such cgroup")
	ErrOutOfMemory   = errors.New("simos: out of memory")
)

// CreateCgroup creates (or returns) a cgroup at path, creating parents.
func (n *Node) CreateCgroup(path string) *Cgroup {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.createCgroupLocked(path)
}

func (n *Node) createCgroupLocked(path string) *Cgroup {
	if cg, ok := n.cgs[path]; ok {
		return cg
	}
	// Find parent by trimming the last segment.
	parentPath := "/"
	if i := lastSlash(path); i > 0 {
		parentPath = path[:i]
	}
	parent := n.createCgroupLocked(parentPath)
	cg := &Cgroup{Path: path, node: n, parent: parent}
	parent.children = append(parent.children, cg)
	n.cgs[path] = cg
	return cg
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// RemoveCgroup deletes an empty cgroup.
func (n *Node) RemoveCgroup(path string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	cg, ok := n.cgs[path]
	if !ok {
		return ErrNoSuchCgroup
	}
	if len(cg.procs) > 0 || len(cg.children) > 0 {
		return fmt.Errorf("simos: cgroup %s not empty", path)
	}
	if cg.parent != nil {
		kids := cg.parent.children[:0]
		for _, c := range cg.parent.children {
			if c != cg {
				kids = append(kids, c)
			}
		}
		cg.parent.children = kids
	}
	delete(n.cgs, path)
	return nil
}

// Spawn creates a process inside the cgroup at cgPath (created on demand).
func (n *Node) Spawn(name, cgPath string) (*Process, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.usedLocked() >= n.cfg.RAMBytes {
		return nil, ErrOutOfMemory
	}
	cg := n.createCgroupLocked(cgPath)
	p := &Process{
		PID:  n.nextPID,
		Name: name,
		node: n,
		cg:   cg,
	}
	n.nextPID++
	n.procs[p.PID] = p
	cg.procs = append(cg.procs, p)
	return p, nil
}

// Process lookup.
func (n *Node) Process(pid int) (*Process, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.procs[pid]
	return p, ok
}

// NumProcesses returns the count of live processes.
func (n *Node) NumProcesses() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.procs)
}

// MapPrivate charges anonymous memory to the process (page-rounded).
func (p *Process) MapPrivate(bytes int64) error {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	if p.exited {
		return ErrNoSuchProcess
	}
	b := RoundPages(bytes)
	if p.node.usedLocked()+b > p.node.cfg.RAMBytes {
		return ErrOutOfMemory
	}
	p.privateBytes += b
	p.node.privateBytes += b
	return nil
}

// UnmapPrivate releases anonymous memory.
func (p *Process) UnmapPrivate(bytes int64) {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	b := RoundPages(bytes)
	if b > p.privateBytes {
		b = p.privateBytes
	}
	p.privateBytes -= b
	p.node.privateBytes -= b
}

// MapShared maps a named shared library into the process. The library's
// bytes are charged to the node once, no matter how many processes map it.
func (p *Process) MapShared(name string, bytes int64) {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	lib, ok := p.node.libs[name]
	if !ok {
		lib = &SharedLib{Name: name, Bytes: RoundPages(bytes)}
		p.node.libs[name] = lib
		p.node.libBytes += lib.Bytes
	}
	for _, l := range p.libs {
		if l == lib {
			return
		}
	}
	if p.libs == nil {
		p.libs = make([]*SharedLib, 0, 4)
	}
	lib.refs++
	p.libs = append(p.libs, lib)
}

// ChargeCache attributes page-cache bytes to this process's cgroup (cgroup
// v2 charges the first toucher), also raising the node cache figure.
func (p *Process) ChargeCache(bytes int64) {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	b := RoundPages(bytes)
	p.cacheBytes += b
	p.node.cacheBytes += b
}

// PrivateBytes reports the process's anonymous memory.
func (p *Process) PrivateBytes() int64 {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	return p.privateBytes
}

// RSS approximates resident set size: private plus a proportional share of
// each mapped library.
func (p *Process) RSS() int64 {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	rss := p.privateBytes
	for _, lib := range p.libs {
		rss += lib.Bytes / int64(lib.refs)
	}
	return rss
}

// Exit terminates the process, releasing private memory, library references,
// and its cgroup cache charges.
func (p *Process) Exit() {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	if p.exited {
		return
	}
	p.exited = true
	p.node.privateBytes -= p.privateBytes
	p.privateBytes = 0
	p.node.cacheBytes -= p.cacheBytes
	p.cacheBytes = 0
	for _, lib := range p.libs {
		lib.refs--
		if lib.refs == 0 {
			delete(p.node.libs, lib.Name)
			p.node.libBytes -= lib.Bytes
		}
	}
	p.libs = nil
	delete(p.node.procs, p.PID)
	procs := p.cg.procs[:0]
	for _, q := range p.cg.procs {
		if q != p {
			procs = append(procs, q)
		}
	}
	p.cg.procs = procs
}

// Cgroup returns the process's cgroup.
func (p *Process) Cgroup() *Cgroup { return p.cg }

// MemoryCurrent mirrors cgroup v2 memory.current: anonymous memory of all
// member processes (recursively) plus charged page cache.
func (cg *Cgroup) MemoryCurrent() int64 {
	cg.node.mu.Lock()
	defer cg.node.mu.Unlock()
	return cg.memoryCurrentLocked()
}

func (cg *Cgroup) memoryCurrentLocked() int64 {
	var total int64
	for _, p := range cg.procs {
		total += p.privateBytes + p.cacheBytes
	}
	for _, c := range cg.children {
		total += c.memoryCurrentLocked()
	}
	return total
}

// Lookup finds a cgroup by path.
func (n *Node) Cgroup(path string) (*Cgroup, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cg, ok := n.cgs[path]
	return cg, ok
}

// usedLocked is whole-system used memory (the `free` view): base system +
// page cache + all process private memory + each shared library once.
func (n *Node) usedLocked() int64 {
	return n.cfg.BaseSystemBytes + n.cfg.BaseCacheBytes + n.cacheBytes + n.privateBytes + n.libBytes
}

// MemInfo is the output of the simulated `free` command.
type MemInfo struct {
	TotalBytes     int64
	UsedBytes      int64
	FreeBytes      int64
	CacheBytes     int64
	AvailableBytes int64
}

// Free reports whole-system memory like `free -b`.
func (n *Node) Free() MemInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	used := n.usedLocked()
	cache := n.cfg.BaseCacheBytes + n.cacheBytes
	return MemInfo{
		TotalBytes:     n.cfg.RAMBytes,
		UsedBytes:      used,
		FreeBytes:      n.cfg.RAMBytes - used,
		CacheBytes:     cache,
		AvailableBytes: n.cfg.RAMBytes - used + cache,
	}
}

// UsedBeyondIdle reports used memory above the idle baseline: the quantity
// the paper divides by container count for the `free`-based figures.
func (n *Node) UsedBeyondIdle() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.usedLocked() - n.cfg.BaseSystemBytes - n.cfg.BaseCacheBytes
}

// HasSharedLib reports whether a shared library (or digest-keyed shared
// artifact) named name is resident on the node. The scheduler's locality
// scoring uses this to find nodes already holding a module's images.
func (n *Node) HasSharedLib(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.libs[name]
	return ok
}

// SharedLibs lists resident shared libraries sorted by name.
func (n *Node) SharedLibs() []SharedLib {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]SharedLib, 0, len(n.libs))
	for _, lib := range n.libs {
		out = append(out, *lib)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
