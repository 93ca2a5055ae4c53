// Package runtimes implements the non-contribution low-level OCI runtimes
// the paper benchmarks against: runC (Kubernetes' default, no Wasm support)
// and youki (Rust, optional Wasm support). Both share the container
// lifecycle bookkeeping in the oci package and the python handler from the
// core package.
package runtimes

import (
	"fmt"
	"time"

	"wasmcontainers/internal/core"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/oci"
	"wasmcontainers/internal/simos"
)

// RunC is the default Kubernetes low-level runtime. It executes native
// (Python) containers only; Wasm specs are rejected, as real runC would
// simply exec an incompatible binary.
type RunC struct {
	node   *simos.Node
	table  *oci.ContainerTable
	python core.PythonHandler
	procs  map[string]*simos.Process
}

// RunC cost/footprint model: runC is a large static Go binary with a heavier
// create path than crun (libcontainer, state files), the comparison the
// paper's Section III-B motivates.
const (
	runcCreateCPUWork    = 1100 * time.Millisecond
	runcCreateFixedDelay = 10 * time.Millisecond
	// runcStateBytes is per-container libcontainer state kept outside the
	// pod cgroup (visible to `free` only).
	runcStateBytes = 120 * 1024
)

// NewRunC creates a runC runtime on the node.
func NewRunC(node *simos.Node) *RunC {
	return &RunC{
		node:  node,
		table: oci.NewContainerTable(),
		procs: make(map[string]*simos.Process),
	}
}

// Name implements oci.Runtime.
func (r *RunC) Name() string { return "runc" }

// Version implements oci.Runtime.
func (r *RunC) Version() string { return "1.1.12" }

// Create implements oci.Runtime.
func (r *RunC) Create(id string, bundle *oci.Bundle) error {
	if err := bundle.Spec.Validate(); err != nil {
		return err
	}
	if bundle.Spec.IsWasm() {
		return fmt.Errorf("runc: %w: wasm containers are not supported", oci.ErrNoHandler)
	}
	_, err := r.table.Add(id, bundle)
	return err
}

// Start implements oci.Runtime.
func (r *RunC) Start(id string) (*oci.StartReport, error) {
	ctr, err := r.table.Get(id)
	if err != nil {
		return nil, err
	}
	if ctr.Status != oci.StatusCreated {
		return nil, fmt.Errorf("%w: %s is %s", oci.ErrBadState, id, ctr.Status)
	}
	cgPath := ctr.Bundle.Spec.Linux.CgroupsPath
	if cgPath == "" {
		cgPath = "/unmanaged/" + id
	}
	report, err := r.python.Start(r.node, r.Name(), id, ctr, cgPath, r.procs)
	if err != nil {
		return nil, err
	}
	// libcontainer state lives in the system slice.
	state, err := r.node.Spawn("runc-state["+id+"]", "/system.slice/runc")
	if err != nil {
		return nil, err
	}
	if err := state.MapPrivate(runcStateBytes); err != nil {
		return nil, err
	}
	r.procs[id+"/state"] = state

	report.Cost.CPUWork += runcCreateCPUWork
	report.Cost.FixedDelay += runcCreateFixedDelay
	ctr.Status = oci.StatusRunning
	ctr.Pid = report.Pid
	ctr.Handler = report.Handler
	return report, nil
}

// State implements oci.Runtime.
func (r *RunC) State(id string) (oci.State, error) {
	ctr, err := r.table.Get(id)
	if err != nil {
		return oci.State{}, err
	}
	return oci.State{
		Version: oci.SpecVersion, ID: id, Status: ctr.Status, Pid: ctr.Pid,
		Bundle: ctr.Bundle.Path, Annotations: ctr.Bundle.Spec.Annotations,
	}, nil
}

// Kill implements oci.Runtime.
func (r *RunC) Kill(id string, signal int) error {
	ctr, err := r.table.Get(id)
	if err != nil {
		return err
	}
	if ctr.Status != oci.StatusRunning {
		return fmt.Errorf("%w: %s is %s", oci.ErrBadState, id, ctr.Status)
	}
	for _, key := range []string{id, id + "/state"} {
		if p, ok := r.procs[key]; ok {
			p.Exit()
			delete(r.procs, key)
		}
	}
	ctr.Status = oci.StatusStopped
	return nil
}

// Delete implements oci.Runtime.
func (r *RunC) Delete(id string) error {
	ctr, err := r.table.Get(id)
	if err != nil {
		return err
	}
	if ctr.Status == oci.StatusRunning {
		return fmt.Errorf("%w: %s is running", oci.ErrBadState, id)
	}
	return r.table.Remove(id)
}

// List implements oci.Runtime.
func (r *RunC) List() []string { return r.table.List() }

// Youki is the Rust low-level runtime; it supports Wasm via the same
// embedded-engine approach as crun but with a heavier create path. The paper
// considered and rejected it as the integration target (Section III-B).
type Youki struct {
	*core.Crun
}

// NewYouki creates a youki runtime embedding the given engine.
func NewYouki(node *simos.Node, prof engine.Profile) *Youki {
	inner := core.New(core.Config{
		Node:             node,
		Engine:           prof,
		CreateCPUWork:    700 * time.Millisecond,
		CreateFixedDelay: 5 * time.Millisecond,
	})
	return &Youki{Crun: inner}
}

// Name implements oci.Runtime.
func (y *Youki) Name() string { return "youki" }

// Version implements oci.Runtime.
func (y *Youki) Version() string { return "0.3.3" }
