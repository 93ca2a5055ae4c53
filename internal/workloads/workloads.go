// Package workloads holds the guest programs used across the benchmark
// suite. The paper evaluates a "minimal C application corresponding to a
// very small microservice"; here the equivalent programs are written in
// WebAssembly text format and assembled by the wat package, plus a Python
// variant (run by the pylite interpreter) for the non-Wasm baseline.
package workloads

import (
	"slices"
	"strings"
	"sync"

	"wasmcontainers/internal/wasm"
	"wasmcontainers/internal/wat"
)

// MinimalServiceWAT is the paper's microservice: it reads its arguments,
// prints a single startup line to stdout via fd_write, touches a small
// amount of linear memory (a request counter table), and exits 0. Memory
// and startup behaviour are dominated by the runtime, exactly as the paper
// requires.
const MinimalServiceWAT = `
(module
  (import "wasi_snapshot_preview1" "fd_write"
    (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "proc_exit"
    (func $proc_exit (param i32)))
  (memory (export "memory") 1)
  ;; iovec at 0: base=16 len=15 ; message at 16
  (data (i32.const 16) "service ready\0a")
  (func $main (export "_start") (local $i i32)
    ;; initialize a small counter table (touch 256 bytes)
    block $done
      loop $fill
        local.get $i
        i32.const 256
        i32.ge_u
        br_if $done
        local.get $i
        i32.const 1024
        i32.add
        i32.const 0
        i32.store8
        local.get $i
        i32.const 1
        i32.add
        local.set $i
        br $fill
      end
    end
    ;; write the banner
    (i32.store (i32.const 0) (i32.const 16))
    (i32.store (i32.const 4) (i32.const 14))
    (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 8))
    drop
    (call $proc_exit (i32.const 0))))
`

// CPUBoundWAT computes primes with trial division; its runtime scales with
// the argument stored at a fixed memory location by the harness. Used for
// the engine-throughput ablation.
const CPUBoundWAT = `
(module
  (func $is_prime (param $n i32) (result i32) (local $d i32)
    local.get $n
    i32.const 2
    i32.lt_u
    if (result i32)
      i32.const 0
    else
      i32.const 2
      local.set $d
      block $out (result i32)
        loop $chk (result i32)
          local.get $d
          local.get $d
          i32.mul
          local.get $n
          i32.gt_u
          if
            i32.const 1
            br $out
          end
          local.get $n
          local.get $d
          i32.rem_u
          i32.eqz
          if
            i32.const 0
            br $out
          end
          local.get $d
          i32.const 1
          i32.add
          local.set $d
          br $chk
        end
      end
    end)
  (func (export "count_primes") (param $limit i32) (result i32)
    (local $i i32) (local $count i32)
    i32.const 2
    local.set $i
    block $done
      loop $next
        local.get $i
        local.get $limit
        i32.ge_u
        br_if $done
        local.get $i
        call $is_prime
        local.get $count
        i32.add
        local.set $count
        local.get $i
        i32.const 1
        i32.add
        local.set $i
        br $next
      end
    end
    local.get $count))
`

// MemoryBoundWAT grows linear memory and touches every new page; used by
// the memory-model tests and the density ablation.
const MemoryBoundWAT = `
(module
  (memory (export "memory") 1 64)
  (func (export "grow_touch") (param $pages i32) (result i32) (local $addr i32)
    local.get $pages
    memory.grow
    i32.const -1
    i32.eq
    if
      i32.const -1
      return
    end
    ;; touch one byte per new page
    (local.set $addr (i32.const 65536))
    block $done
      loop $touch
        local.get $addr
        memory.size
        i32.const 65536
        i32.mul
        i32.ge_u
        br_if $done
        local.get $addr
        i32.const 7
        i32.store8
        local.get $addr
        i32.const 65536
        i32.add
        local.set $addr
        br $touch
      end
    end
    memory.size))
`

// EchoArgsWAT prints each argument on its own line. It exercises the WASI
// argument-handling path that the paper's crun integration forwards from the
// OCI process spec (integration aspect 2 in Section III-C).
const EchoArgsWAT = `
(module
  (import "wasi_snapshot_preview1" "args_sizes_get" (func $args_sizes_get (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "args_get" (func $args_get (param i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_write" (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  ;; layout: 0: argc, 4: buflen, 8: argv pointers (max 64), 264: arg buffer,
  ;;         4096: iovec pair, 4112: newline
  (data (i32.const 4112) "\0a")
  (func (export "_start") (local $i i32) (local $argc i32) (local $ptr i32) (local $len i32)
    (call $args_sizes_get (i32.const 0) (i32.const 4))
    drop
    (call $args_get (i32.const 8) (i32.const 264))
    drop
    (local.set $argc (i32.load (i32.const 0)))
    block $done
      loop $each
        local.get $i
        local.get $argc
        i32.ge_u
        br_if $done
        ;; ptr = argv[i]
        (local.set $ptr (i32.load (i32.add (i32.const 8) (i32.mul (local.get $i) (i32.const 4)))))
        ;; strlen
        (local.set $len (i32.const 0))
        block $sdone
          loop $s
            (i32.load8_u (i32.add (local.get $ptr) (local.get $len)))
            i32.eqz
            br_if $sdone
            (local.set $len (i32.add (local.get $len) (i32.const 1)))
            br $s
          end
        end
        ;; iovec: [ptr,len] + newline
        (i32.store (i32.const 4096) (local.get $ptr))
        (i32.store (i32.const 4100) (local.get $len))
        (i32.store (i32.const 4104) (i32.const 4112))
        (i32.store (i32.const 4108) (i32.const 1))
        (call $fd_write (i32.const 1) (i32.const 4096) (i32.const 2) (i32.const 4120))
        drop
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $each
      end
    end))
`

// FileIOWAT creates a file in the first preopened directory, writes a
// payload, reads it back, and prints the byte count. It exercises the
// pre-opened directory forwarding of the crun WASI integration.
const FileIOWAT = `
(module
  (import "wasi_snapshot_preview1" "path_open"
    (func $path_open (param i32 i32 i32 i32 i32 i64 i64 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_write" (func $fd_write (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_read" (func $fd_read (param i32 i32 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_seek" (func $fd_seek (param i32 i64 i32 i32) (result i32)))
  (import "wasi_snapshot_preview1" "fd_close" (func $fd_close (param i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "state.bin")
  (data (i32.const 64) "persisted-payload")
  (data (i32.const 512) "ok\0a")
  (func (export "_start") (local $fd i32) (local $errno i32)
    ;; open fd3:"state.bin" create|trunc
    (local.set $errno
      (call $path_open (i32.const 3) (i32.const 0) (i32.const 0) (i32.const 9)
                       (i32.const 9) (i64.const -1) (i64.const -1) (i32.const 0) (i32.const 32)))
    local.get $errno
    if return end
    (local.set $fd (i32.load (i32.const 32)))
    ;; write payload (17 bytes at 64)
    (i32.store (i32.const 96) (i32.const 64))
    (i32.store (i32.const 100) (i32.const 17))
    (call $fd_write (local.get $fd) (i32.const 96) (i32.const 1) (i32.const 104))
    drop
    ;; seek back and read into 128
    (call $fd_seek (local.get $fd) (i64.const 0) (i32.const 0) (i32.const 112))
    drop
    (i32.store (i32.const 96) (i32.const 128))
    (i32.store (i32.const 100) (i32.const 17))
    (call $fd_read (local.get $fd) (i32.const 96) (i32.const 1) (i32.const 120))
    drop
    (call $fd_close (local.get $fd))
    drop
    ;; print "ok\n"
    (i32.store (i32.const 96) (i32.const 512))
    (i32.store (i32.const 100) (i32.const 3))
    (call $fd_write (i32.const 1) (i32.const 96) (i32.const 1) (i32.const 104))
    drop))
`

// RequestHandlerWAT is the serving workload: an invocable request handler
// for the internal/serve warm-pool gateway. Each handle(n) call bumps a
// per-instance request counter in linear memory, dirties n bytes of scratch
// state, runs a bounded compute loop (8n iterations), and returns the
// counter. On a freshly instantiated — or correctly reset — instance the
// counter always reads 1, which is exactly what the pool-reuse tests assert:
// any cross-request state bleed makes the return value climb.
const RequestHandlerWAT = `
(module
  (memory (export "memory") 1)
  ;; layout: 0: request counter, 32: compute sink, 64+: scratch dirtied per request
  (func (export "handle") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    ;; counter++
    (i32.store (i32.const 0) (i32.add (i32.load (i32.const 0)) (i32.const 1)))
    ;; dirty n bytes of scratch state
    block $fdone
      loop $fill
        local.get $i
        local.get $n
        i32.ge_u
        br_if $fdone
        (i32.store8 (i32.add (i32.const 64) (local.get $i)) (i32.const 171))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $fill
      end
    end
    ;; bounded per-request compute: acc = sum(i) for i in [0, 8n)
    (local.set $i (i32.const 0))
    block $cdone
      loop $compute
        local.get $i
        (i32.mul (local.get $n) (i32.const 8))
        i32.ge_u
        br_if $cdone
        (local.set $acc (i32.add (local.get $acc) (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        br $compute
      end
    end
    (i32.store (i32.const 32) (local.get $acc))
    (i32.load (i32.const 0))))
`

// MinimalServicePy is the Python-container equivalent of MinimalServiceWAT,
// executed by the pylite interpreter inside runC/crun Python containers.
const MinimalServicePy = `
counters = []
i = 0
while i < 256:
    counters.append(0)
    i = i + 1
print("service ready")
`

var (
	compileOnce sync.Once
	compiled    map[string]*wasm.Module
	compileErr  error
)

// moduleSources names every WAT workload.
var moduleSources = map[string]string{
	"minimal-service": MinimalServiceWAT,
	"cpu-bound":       CPUBoundWAT,
	"memory-bound":    MemoryBoundWAT,
	"echo-args":       EchoArgsWAT,
	"file-io":         FileIOWAT,
	"request-handler": RequestHandlerWAT,
}

func ensureCompiled() error {
	compileOnce.Do(func() {
		compiled = make(map[string]*wasm.Module, len(moduleSources))
		for name, src := range moduleSources {
			m, err := wat.Compile(src)
			if err != nil {
				compileErr = err
				return
			}
			m.Name = name
			compiled[name] = m
		}
	})
	return compileErr
}

// Module returns the named compiled workload module. Names of the form
// request-handler-v<suffix> synthesize a handler variant on demand (see
// HandlerVariantPrefix).
func Module(name string) (*wasm.Module, error) {
	if err := ensureCompiled(); err != nil {
		return nil, err
	}
	if m, ok := compiled[name]; ok {
		return m, nil
	}
	if strings.HasPrefix(name, HandlerVariantPrefix) {
		return handlerVariant(name)
	}
	return nil, &UnknownWorkloadError{Name: name}
}

// HandlerVariantPrefix names the synthesized request-handler variants:
// request-handler-v<suffix>, where suffix is 1-16 characters of
// [a-z0-9-]. Each variant embeds its suffix as a data segment in otherwise
// unused scratch memory, so it behaves exactly like request-handler but
// encodes — and content-addresses — differently: multi-module serving and
// lazy deploy get N distinct module digests (N distinct shards, pools, and
// shared-artifact charges) from one handler implementation.
const HandlerVariantPrefix = "request-handler-v"

// handlerVariant synthesizes one named variant. Nothing is kept per name —
// the names arrive in URL paths — so a caller that wants a variant more than
// once holds on to what it got.
func handlerVariant(name string) (*wasm.Module, error) {
	suffix := strings.TrimPrefix(name, HandlerVariantPrefix)
	if len(suffix) == 0 || len(suffix) > 16 {
		return nil, &UnknownWorkloadError{Name: name}
	}
	for _, c := range suffix {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return nil, &UnknownWorkloadError{Name: name}
		}
	}
	// A shallow copy of the assembled handler plus (data (i32.const 40)
	// "<suffix>"): handle() never touches 40..55, so behaviour is identical;
	// only the encoded bytes (and the digest) differ. Shared slices are
	// clipped so an append on a variant never writes into the handler's. The
	// module, its data segment and the suffix bytes are one block.
	v := &variant{Module: *compiled["request-handler"]}
	m := &v.Module
	m.Types = slices.Clip(m.Types)
	m.Imports = slices.Clip(m.Imports)
	m.Functions = slices.Clip(m.Functions)
	m.Tables = slices.Clip(m.Tables)
	m.Memories = slices.Clip(m.Memories)
	m.Globals = slices.Clip(m.Globals)
	m.Exports = slices.Clip(m.Exports)
	m.Elements = slices.Clip(m.Elements)
	m.Codes = slices.Clip(m.Codes)
	m.Customs = slices.Clip(m.Customs)
	n := copy(v.suffix[:], suffix)
	v.data[0] = wasm.DataSegment{Offset: wasm.I32Const(40), Data: v.suffix[:n:n]}
	m.Data = v.data[:]
	m.Name = name
	return m, nil
}

// variant is a handler variant's one allocation: the module, its one data
// segment and the segment's bytes (the suffix, at most 16 bytes).
type variant struct {
	wasm.Module
	data   [1]wasm.DataSegment
	suffix [16]byte
}

// Binary returns the wasm binary encoding of the named workload.
func Binary(name string) ([]byte, error) {
	m, err := Module(name)
	if err != nil {
		return nil, err
	}
	return wasm.Encode(m), nil
}

// Names lists the available WAT workloads.
func Names() []string {
	return []string{"minimal-service", "cpu-bound", "memory-bound", "echo-args", "file-io", "request-handler"}
}

// UnknownWorkloadError reports a request for a workload that does not exist.
type UnknownWorkloadError struct{ Name string }

// Error implements the error interface.
func (e *UnknownWorkloadError) Error() string { return "workloads: unknown workload " + e.Name }
