package gateway

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWarmServerLiveHeap pins what a warm server keeps after serving: the
// benchmark's warm-steady gateway (request-handler, wamr, pool 4, one node,
// a discarded access log, one-second tsdb windows) takes 2 000 warm invokes
// through ServeHTTP, and its live heap may grow by at most 300 KB (it grows
// by about 150). The largest share is the span tracer's log: 6 000 request
// spans at about 17 bytes each.
func TestWarmServerLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes heap figures")
	}
	fc := DefaultFunction()
	fc.Arg = 64
	gw, err := New(Config{
		Functions:      []FunctionConfig{fc},
		Bridge:         BridgeConfig{Dilation: 0, SubmitBuffer: 256},
		ClusterNodes:   1,
		AccessLog:      io.Discard,
		SampleInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Bridge().Stop()
	request := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/functions/request-handler", strings.NewReader("payload"))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm invoke: status %d body %s", rec.Code, rec.Body)
		}
	}
	before := liveHeap()
	for i := 0; i < 2000; i++ {
		request()
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(gw)
	t.Logf("2000 warm invokes grew the live heap by %d KB", grown/1000)
	if grown > 300_000 {
		t.Fatalf("2000 warm invokes grew the live heap by %d KB, want at most 300 KB", grown/1000)
	}
}

// TestLazyDeployLiveHeap pins what a lazy deploy leaves behind: the
// benchmark's cold-deploy gateway (a lazy template of request-handler, wamr,
// pool 4, one node, a discarded access log, one-second tsdb windows) takes
// 512 requests each naming a never-seen variant, and its live heap may grow
// by at most 8.3 KiB per deploy: its reading, about 7.3, plus 1 KiB (the
// bound was 12 while it read 7.4, before the registration layers were
// trimmed). Each deploy keeps four warm instances aliasing one baseline
// image that stores only the variant's non-zero bytes; an image of whole
// 64 KiB pages kept about 71.5.
func TestLazyDeployLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state changes heap figures")
	}
	fc := DefaultFunction()
	fc.Arg = 64
	gw, err := New(Config{
		Functions:      []FunctionConfig{fc},
		Bridge:         BridgeConfig{Dilation: 0, SubmitBuffer: 256},
		ClusterNodes:   1,
		AccessLog:      io.Discard,
		SampleInterval: time.Second,
		LazyTemplate:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Bridge().Stop()
	deploy := func(i int) {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/functions/request-handler-vh%d", i), strings.NewReader("payload"))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("lazy deploy %d: status %d body %s", i, rec.Code, rec.Body)
		}
	}
	const warmup, deploys = 8, 512
	for i := 0; i < warmup; i++ {
		deploy(i)
	}
	before := liveHeap()
	for i := warmup; i < warmup+deploys; i++ {
		deploy(i)
	}
	perDeploy := float64(int64(liveHeap())-int64(before)) / deploys / 1024
	runtime.KeepAlive(gw)
	t.Logf("%d lazy deploys grew the live heap by %.1f KiB each", deploys, perDeploy)
	if perDeploy > 8.3 {
		t.Fatalf("%d lazy deploys grew the live heap by %.1f KiB each, want at most 8.3", deploys, perDeploy)
	}
}
