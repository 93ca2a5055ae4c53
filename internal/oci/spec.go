// Package oci defines the Open Container Initiative runtime-spec subset this
// repository uses: the container configuration (config.json), bundles, the
// container lifecycle state machine, and the low-level runtime interface
// that crun, runC, and youki implement. It mirrors the real spec closely
// enough that the Wasm-handler annotations (module.wasm.image/variant) and
// WASI argument forwarding work exactly as in the paper's crun integration.
package oci

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"wasmcontainers/internal/vfs"
)

// SpecVersion is the OCI runtime-spec version implemented.
const SpecVersion = "1.0.2"

// WasmVariantAnnotation marks a container image as a Wasm workload, following
// the CNCF convention the paper's integration consumes.
const WasmVariantAnnotation = "module.wasm.image/variant"

// WasmHandlerAnnotation selects the crun handler explicitly
// (run.oci.handler=wasm), the second trigger the paper's crun patch honors.
const WasmHandlerAnnotation = "run.oci.handler"

// Spec is the config.json of a bundle.
type Spec struct {
	Version     string            `json:"ociVersion"`
	Process     Process           `json:"process"`
	Root        Root              `json:"root"`
	Hostname    string            `json:"hostname,omitempty"`
	Mounts      []Mount           `json:"mounts,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Linux       *Linux            `json:"linux,omitempty"`
}

// Process describes the container entrypoint.
type Process struct {
	Args []string `json:"args"`
	Env  []string `json:"env,omitempty"`
	Cwd  string   `json:"cwd,omitempty"`
}

// Root describes the root filesystem.
type Root struct {
	Path     string `json:"path"`
	Readonly bool   `json:"readonly,omitempty"`
}

// Mount is a filesystem mount entry.
type Mount struct {
	Destination string   `json:"destination"`
	Type        string   `json:"type,omitempty"`
	Source      string   `json:"source,omitempty"`
	Options     []string `json:"options,omitempty"`
}

// Linux holds Linux-specific configuration.
type Linux struct {
	CgroupsPath string      `json:"cgroupsPath,omitempty"`
	Namespaces  []Namespace `json:"namespaces,omitempty"`
	Resources   *Resources  `json:"resources,omitempty"`
}

// Namespace is one namespace the container joins.
type Namespace struct {
	Type string `json:"type"`
}

// DefaultNamespaces returns the namespaces Kubernetes containers get.
func DefaultNamespaces() []Namespace {
	return []Namespace{
		{Type: "pid"}, {Type: "network"}, {Type: "ipc"},
		{Type: "uts"}, {Type: "mount"}, {Type: "cgroup"},
	}
}

// Resources carries cgroup limits.
type Resources struct {
	Memory *MemoryLimit `json:"memory,omitempty"`
	CPU    *CPULimit    `json:"cpu,omitempty"`
}

// MemoryLimit bounds container memory in bytes.
type MemoryLimit struct {
	Limit int64 `json:"limit,omitempty"`
}

// CPULimit bounds container CPU.
type CPULimit struct {
	Shares uint64 `json:"shares,omitempty"`
	Quota  int64  `json:"quota,omitempty"`
}

// Validate checks the spec for the constraints this implementation relies on.
func (s *Spec) Validate() error {
	if s.Version == "" {
		return errors.New("oci: missing ociVersion")
	}
	if len(s.Process.Args) == 0 {
		return errors.New("oci: process.args must not be empty")
	}
	if s.Root.Path == "" {
		return errors.New("oci: root.path must be set")
	}
	for _, e := range s.Process.Env {
		if !strings.Contains(e, "=") {
			return fmt.Errorf("oci: malformed env entry %q", e)
		}
	}
	return nil
}

// IsWasm reports whether the spec requests the Wasm handler, either through
// the image-variant annotation, the explicit handler annotation, or a .wasm
// entrypoint.
func (s *Spec) IsWasm() bool {
	if s.Annotations[WasmVariantAnnotation] == "compat" ||
		s.Annotations[WasmVariantAnnotation] == "compat-smart" {
		return true
	}
	if s.Annotations[WasmHandlerAnnotation] == "wasm" {
		return true
	}
	return len(s.Process.Args) > 0 && strings.HasSuffix(s.Process.Args[0], ".wasm")
}

// MarshalJSON round-trips through the standard library (the default), kept
// explicit so config.json serialization is part of the public contract.
func (s *Spec) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Bundle is an OCI bundle: a spec plus a root filesystem.
type Bundle struct {
	Path   string
	Spec   *Spec
	Rootfs *vfs.FS
}

// NewBundle assembles a bundle and validates its spec.
func NewBundle(path string, spec *Spec, rootfs *vfs.FS) (*Bundle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Bundle{Path: path, Spec: spec, Rootfs: rootfs}, nil
}

// Status is the lifecycle state of a container, per the OCI spec.
type Status string

// Lifecycle states.
const (
	StatusCreating Status = "creating"
	StatusCreated  Status = "created"
	StatusRunning  Status = "running"
	StatusStopped  Status = "stopped"
)

// State is the `state` operation result.
type State struct {
	Version     string            `json:"ociVersion"`
	ID          string            `json:"id"`
	Status      Status            `json:"status"`
	Pid         int               `json:"pid,omitempty"`
	Bundle      string            `json:"bundle"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// StartCost is the simulated cost of creating+starting one container; the
// orchestration layer feeds it to the discrete-event engine.
type StartCost struct {
	// FixedDelay is non-CPU latency (IPC waits, readiness polls).
	FixedDelay time.Duration
	// CPUWork is CPU time consumed on the node's cores.
	CPUWork time.Duration
}

// StartReport is returned by Runtime.Start with real-execution telemetry.
type StartReport struct {
	Cost StartCost
	// Pid of the container's main process.
	Pid int
	// ExitCode of the entrypoint's initialization (0 = healthy).
	ExitCode uint32
	// Stdout captured from the entrypoint's startup.
	Stdout string
	// Instructions counts really-executed guest instructions/bytecode steps.
	Instructions uint64
	// Handler names the execution path taken ("wasm:wamr", "native:pylite").
	Handler string
}

// Runtime is the low-level OCI runtime interface (create/start/state/kill/
// delete), the layer crun, runC, and youki implement.
type Runtime interface {
	// Name returns the runtime's binary name (e.g. "crun").
	Name() string
	// Version returns the runtime version string.
	Version() string
	// Create prepares a container from a bundle (state: created).
	Create(id string, bundle *Bundle) error
	// Start launches the container entrypoint (state: running) and reports
	// its simulated cost and real execution telemetry.
	Start(id string) (*StartReport, error)
	// State queries a container.
	State(id string) (State, error)
	// Kill signals the container's process.
	Kill(id string, signal int) error
	// Delete removes a stopped container and its cgroup.
	Delete(id string) error
	// List returns all container IDs known to the runtime.
	List() []string
}

// Common runtime errors.
var (
	ErrNotFound  = errors.New("oci: container not found")
	ErrExists    = errors.New("oci: container already exists")
	ErrBadState  = errors.New("oci: operation not allowed in current state")
	ErrNoHandler = errors.New("oci: no handler for entrypoint")
)
