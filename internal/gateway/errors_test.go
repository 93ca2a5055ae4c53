package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/serve"
)

// TestMapError pins the full dispatcher-error → HTTP vocabulary: distinct
// admission outcomes must stay distinguishable on the wire.
func TestMapError(t *testing.T) {
	const deadline = 500 * time.Millisecond
	cases := []struct {
		name       string
		err        error
		deadline   time.Duration
		status     int
		code       string
		retryAfter time.Duration
	}{
		{"queue full", serve.ErrQueueFull, deadline,
			http.StatusTooManyRequests, "queue_full", 500 * time.Millisecond},
		{"queue full default hint", serve.ErrQueueFull, 0,
			http.StatusTooManyRequests, "queue_full", defaultBusyRetry},
		{"concurrency limit", serve.ErrConcurrencyLimit, deadline,
			http.StatusTooManyRequests, "concurrency_limit", defaultBusyRetry},
		{"queue expired", serve.ErrQueueExpired, deadline,
			http.StatusGatewayTimeout, "queue_expired", 0},
		{"request timeout", serve.ErrRequestTimeout, deadline,
			http.StatusGatewayTimeout, "request_timeout", 0},
		{"dispatcher draining", serve.ErrDraining, deadline,
			http.StatusServiceUnavailable, "draining", 0},
		{"bridge draining", ErrBridgeDraining, deadline,
			http.StatusServiceUnavailable, "draining", 0},
		{"bridge busy", ErrBridgeBusy, deadline,
			http.StatusServiceUnavailable, "bridge_busy", defaultBusyRetry},
		{"no live node", fmt.Errorf("place f: %w", cluster.ErrNoLiveNode), deadline,
			http.StatusServiceUnavailable, "no_live_node", 0},
		{"context canceled", context.Canceled, deadline,
			StatusClientClosedRequest, "client_closed_request", 0},
		{"context deadline", context.DeadlineExceeded, deadline,
			StatusClientClosedRequest, "client_closed_request", 0},
		{"guest failure", errors.New("guest trapped"), deadline,
			http.StatusInternalServerError, "invoke_failed", 0},
		{"wrapped sentinel", fmt.Errorf("attempt 3: %w", serve.ErrQueueFull), deadline,
			http.StatusTooManyRequests, "queue_full", 500 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MapError(tc.err, tc.deadline)
			if m.Status != tc.status {
				t.Errorf("status = %d, want %d", m.Status, tc.status)
			}
			if m.Code != tc.code {
				t.Errorf("code = %q, want %q", m.Code, tc.code)
			}
			if m.RetryAfter != tc.retryAfter {
				t.Errorf("retryAfter = %s, want %s", m.RetryAfter, tc.retryAfter)
			}
		})
	}
}

// TestWriteErrorEnvelope checks the wire shape: the {"error":{...}} JSON
// body and the whole-seconds Retry-After header mirroring retry_after_ms.
func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec,
		ErrorMapping{http.StatusTooManyRequests, "queue_full", 250 * time.Millisecond},
		serve.ErrQueueFull)

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("content-type = %q", got)
	}
	// 250ms rounds up to the minimum expressible Retry-After of 1s.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("unmarshal body: %v", err)
	}
	if env.Error.Code != "queue_full" {
		t.Errorf("body code = %q", env.Error.Code)
	}
	if env.Error.RetryAfterMs != 250 {
		t.Errorf("retry_after_ms = %d, want 250", env.Error.RetryAfterMs)
	}
	if env.Error.Message == "" {
		t.Error("message is empty")
	}
}

// TestWriteErrorNoRetryHeader: mappings without backoff advice must not
// emit a Retry-After header at all.
func TestWriteErrorNoRetryHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, ErrorMapping{http.StatusGatewayTimeout, "queue_expired", 0}, serve.ErrQueueExpired)
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("unexpected Retry-After %q", got)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("unmarshal body: %v", err)
	}
	if env.Error.RetryAfterMs != 0 {
		t.Errorf("retry_after_ms = %d, want omitted/0", env.Error.RetryAfterMs)
	}
}
