package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"

	"wasmcontainers/internal/gateway"
	"wasmcontainers/internal/serve"
)

// The serve child is the system under test for the HTTP workloads: the
// benchmark binary re-executed with -serve-child, building the gateway and
// its listener exactly as cmd/continuumd.serveUntilSignal does. Keeping the
// server in its own process is what makes CPU, mallocs and live heap the
// server's alone; in-process, net/http's client is about half of both.
//
// Control is one JSON line per command on stdin, one JSON line per reply on
// stdout. The first line the child prints is its hello.

type childHello struct {
	Addr string `json:"addr"`
}

// childStats is the child's own resource reading. CPUNs and Mallocs are read
// before the forced GC, HeapAlloc after it.
type childStats struct {
	CPUNs     int64  `json:"cpu_ns"`
	Mallocs   uint64 `json:"mallocs"`
	HeapAlloc uint64 `json:"heap_alloc"`
}

type functionStats struct {
	Module string                `json:"module"`
	Stats  serve.DispatcherStats `json:"stats"`
	Pool   serve.Stats           `json:"pool"`
}

type childDrain struct {
	Err       string          `json:"err,omitempty"`
	Functions []functionStats `json:"functions"`
}

func readSelfStats() childStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := childStats{CPUNs: int64(selfCPU()), Mallocs: ms.Mallocs}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.HeapAlloc = ms.HeapAlloc
	return st
}

// serveChild runs until "drain" or until stdin closes (the parent is gone).
func serveChild(workloadName string) error {
	w, ok := workloadByName(workloadName)
	if !ok || w.Density {
		return fmt.Errorf("serve-child: no HTTP workload %q", workloadName)
	}
	if cpus := parseCPUs(os.Getenv(serverCPUsEnv)); len(cpus) > 0 {
		_ = pinSelf(cpus) // unpinned where the sandbox forbids it; the parent notes which
	}
	gw, err := gateway.New(w.gatewayConfig())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gw.Start()
	srv := &http.Server{Handler: gw}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(childHello{Addr: ln.Addr().String()}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch cmd := in.Text(); cmd {
		case "stats":
			if err := out.Encode(readSelfStats()); err != nil {
				return err
			}
		case "drain":
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			reply := childDrain{}
			if err := gw.Shutdown(ctx); err != nil {
				reply.Err = err.Error()
			}
			_ = srv.Shutdown(ctx) // idle keep-alive connections only; the bridge has already flushed
			cancel()
			<-serveErr
			// The bridge loop has stopped, so pools are safe to read here.
			for _, fn := range gw.Functions() {
				reply.Functions = append(reply.Functions, functionStats{
					Module: fn.Module(), Stats: fn.Dispatcher().Stats(), Pool: fn.Pool().Stats(),
				})
			}
			return out.Encode(reply)
		default:
			return fmt.Errorf("serve-child: unknown command %q", cmd)
		}
	}
	return in.Err()
}

// child is the parent's handle on one serve child.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	base  string // http://127.0.0.1:port
}

func startChild(workloadName string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve-child", workloadName)
	cmd.Stderr = os.Stderr
	// The child inherits this process's (already narrowed) mask, so it is told
	// its half of the machine explicitly.
	cmd.Env = append(os.Environ(), serverCPUsEnv+"="+formatCPUs(serverCPUs))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	var hello childHello
	if err := c.reply(&hello); err != nil {
		c.close()
		return nil, fmt.Errorf("serve child did not come up: %w", err)
	}
	c.base = "http://" + hello.Addr
	return c, nil
}

func (c *child) reply(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (c *child) ask(cmd string, v any) error {
	if _, err := io.WriteString(c.stdin, cmd+"\n"); err != nil {
		return err
	}
	return c.reply(v)
}

func (c *child) stats() (childStats, error) {
	var st childStats
	err := c.ask("stats", &st)
	return st, err
}

// drain shuts the gateway down, collects every function's final counters and
// waits for the process to end.
func (c *child) drain() (childDrain, error) {
	var d childDrain
	if err := c.ask("drain", &d); err != nil {
		c.close()
		return d, err
	}
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return d, fmt.Errorf("serve child exit: %w", err)
	}
	c.cmd = nil
	if d.Err != "" {
		return d, fmt.Errorf("serve child drain: %s", d.Err)
	}
	return d, nil
}

// close stops a child that has not been drained and waits until it is gone.
func (c *child) close() {
	if c.cmd == nil {
		return
	}
	c.stdin.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
	c.cmd = nil
}
