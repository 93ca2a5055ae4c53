package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/gateway"
)

// connections is the closed-loop client count: one per processor of the
// generator's half of the machine (see affinity.go), and never more than the
// dispatcher queue can hold without refusing.
func connections() int {
	c := len(clientCPUs)
	if c < 1 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	return c
}

// loadOpts is one stretch of closed-loop load: each of Conns callers sends
// its next request only after the previous reply. It ends after MaxOps
// requests or when Window has passed, whichever comes first (zero = no limit).
type loadOpts struct {
	Base   string
	Conns  int
	MaxOps int
	Window time.Duration
	// First is the script index of the first request.
	First int
	// Module names the target of request i.
	Module func(i int) string
	Script *script
}

// loadResult is what the generator saw. A failed op (non-200, transport
// error or failed check) has no latency sample.
type loadResult struct {
	Attempted int
	Failed    int
	Refused   int // 429, 503 or 504: the gateway turned the request away
	FirstFail string
	// Lat[i] is op i's latency and End[i] its completion offset from the
	// start of the stretch, successful ops only.
	Lat     []time.Duration
	End     []time.Duration
	Elapsed time.Duration
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// checkReply is the per-response output check: a 200 whose body parses as an
// InvokeResponse naming the right module and the payload length we sent,
// served warm on the first attempt. Pools are pre-filled and concurrency does
// not exceed pool size, so that holds for a first request to a fresh module
// too.
func checkReply(resp *http.Response, body []byte, module string, sent int) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.120s", module, resp.StatusCode, body)
	}
	var ir gateway.InvokeResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		return fmt.Errorf("%s: body is not an InvokeResponse: %v", module, err)
	}
	switch {
	case ir.Module != module:
		return fmt.Errorf("reply names module %q, want %q", ir.Module, module)
	case ir.PayloadBytes != int64(sent):
		return fmt.Errorf("%s: payload_bytes %d, sent %d", module, ir.PayloadBytes, sent)
	case ir.Cold || resp.Header.Get("X-Cold") != "false":
		return fmt.Errorf("%s: served cold (body %v, X-Cold %q)", module, ir.Cold, resp.Header.Get("X-Cold"))
	case ir.Attempts != 1:
		return fmt.Errorf("%s: %d attempts", module, ir.Attempts)
	}
	return nil
}

func drive(o loadOpts) loadResult {
	var next atomic.Int64
	parts := make([]loadResult, o.Conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Conns; c++ {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				n := int(next.Add(1)) - 1
				if o.MaxOps > 0 && n >= o.MaxOps {
					return
				}
				if o.Window > 0 && time.Since(start) >= o.Window {
					return
				}
				i := o.First + n
				module, payload := o.Module(i), o.Script.payload(i)
				res.Attempted++
				t0 := time.Now()
				status, err := post(client, o.Base, module, payload)
				t1 := time.Now()
				if err != nil {
					res.Failed++
					if refusal(status) {
						res.Refused++
					}
					if res.FirstFail == "" {
						res.FirstFail = err.Error()
					}
					continue
				}
				res.Lat = append(res.Lat, t1.Sub(t0))
				res.End = append(res.End, t1.Sub(start))
			}
		}(&parts[c])
	}
	wg.Wait()
	total := loadResult{Elapsed: time.Since(start)}
	for _, p := range parts {
		total.Attempted += p.Attempted
		total.Failed += p.Failed
		total.Refused += p.Refused
		if total.FirstFail == "" {
			total.FirstFail = p.FirstFail
		}
		total.Lat = append(total.Lat, p.Lat...)
		total.End = append(total.End, p.End...)
	}
	return total
}

// refusal: the gateway turned the request away (queue full, draining, or
// expired in the queue) instead of serving it.
func refusal(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// post sends one invoke and checks its reply. status is 0 when no reply came.
func post(client *http.Client, base, module string, payload []byte) (status int, err error) {
	resp, err := client.Post(base+"/v1/functions/"+module, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, checkReply(resp, body, module, len(payload))
}
