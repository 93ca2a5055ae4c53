package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"wasmcontainers/internal/gateway"
)

// TestServeUntilSignal drives the daemon's real run loop — the listener, the
// signal handler, the drain and the final report, which no gateway test
// reaches: serve two functions on a loopback port, invoke both, scrape
// /metrics, SIGTERM ourselves, and require exit code 0 with the admission
// identity reported true for every function.
func TestServeUntilSignal(t *testing.T) {
	modules := []string{"request-handler", "request-handler-v1"}
	cfg := gateway.Config{Bridge: gateway.BridgeConfig{Dilation: 0}}
	for _, m := range modules {
		fc := gateway.DefaultFunction()
		fc.Module = m
		cfg.Functions = append(cfg.Functions, fc)
	}

	var logw bytes.Buffer // read only after serveUntilSignal has returned
	ready := make(chan string, 1)
	type exit struct {
		code int
		err  error
	}
	done := make(chan exit, 1)
	go func() {
		code, err := serveUntilSignal(cfg, "127.0.0.1:0", 30*time.Second, "", &logw, ready)
		done <- exit{code, err}
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case e := <-done:
		t.Fatalf("server exited before listening: code %d, err %v", e.code, e.err)
	case <-time.After(30 * time.Second):
		t.Fatal("server did not come up")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	for _, m := range modules {
		resp, err := client.Post(base+"/v1/functions/"+m, "application/octet-stream", strings.NewReader("ping"))
		if err != nil {
			t.Fatalf("invoke %s: %v", m, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %s: status %d", m, resp.StatusCode)
		}
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^dispatch_latency_ns_count [1-9]`).Match(body) {
		t.Fatalf("/metrics has no populated dispatch_latency_ns histogram:\n%s", body)
	}

	// serveUntilSignal installed its handler before signalling ready, so the
	// signal reaches it and not the default action.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-done:
		if e.code != 0 || e.err != nil {
			t.Fatalf("exit code %d, err %v; log:\n%s", e.code, e.err, logw.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete")
	}
	for _, m := range modules {
		want := fmt.Sprintf("continuumd: %s submitted=1 completed=1 rejected=0 expired=0 failed=0 identity=true", m)
		if !strings.Contains(logw.String(), want) {
			t.Errorf("final report lacks %q:\n%s", want, logw.String())
		}
	}
}
