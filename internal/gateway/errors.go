package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/serve"
)

// APIError is the gateway's wire-level error body:
//
//	{"error": {"code": "queue_full", "message": "...", "retry_after_ms": 250}}
//
// code is a stable machine-readable identifier; retry_after_ms is present
// only when backing off is the right client response, and mirrors the
// Retry-After header (which HTTP expresses in whole seconds, rounded up).
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// errorEnvelope wraps APIError under the "error" key.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// ErrorMapping is one dispatcher/bridge error translated to the wire.
type ErrorMapping struct {
	Status     int
	Code       string
	RetryAfter time.Duration // 0 = no Retry-After
}

// defaultBusyRetry is the Retry-After advice for transient saturation
// (bridge channel full, concurrency limit) where no configured duration
// applies: long enough to shed load, short enough to keep clients live.
const defaultBusyRetry = 100 * time.Millisecond

// MapError classifies err into the gateway's HTTP vocabulary. Distinct
// admission outcomes get distinct statuses so load generators can tell
// backpressure (429, retryable at the client's leisure) from unavailability
// (503) from deadline loss (504). queueDeadline, the function's
// DispatcherConfig.QueueDeadline (0 when none applies), is the Retry-After
// advice for a full queue:
//
//	queue full / concurrency limit → 429 Too Many Requests
//	draining / bridge busy / no live node → 503 Service Unavailable
//	queue expired / request timeout → 504 Gateway Timeout
//	guest invoke failure → 500 Internal Server Error
func MapError(err error, queueDeadline time.Duration) ErrorMapping {
	if queueDeadline <= 0 {
		queueDeadline = defaultBusyRetry
	}
	switch {
	case errors.Is(err, serve.ErrUnknownModule):
		return ErrorMapping{http.StatusNotFound, "unknown_function", 0}
	case errors.Is(err, serve.ErrQueueFull):
		return ErrorMapping{http.StatusTooManyRequests, "queue_full", queueDeadline}
	case errors.Is(err, serve.ErrConcurrencyLimit):
		return ErrorMapping{http.StatusTooManyRequests, "concurrency_limit", defaultBusyRetry}
	case errors.Is(err, serve.ErrQueueExpired):
		return ErrorMapping{http.StatusGatewayTimeout, "queue_expired", 0}
	case errors.Is(err, serve.ErrRequestTimeout):
		return ErrorMapping{http.StatusGatewayTimeout, "request_timeout", 0}
	case errors.Is(err, serve.ErrDraining), errors.Is(err, ErrBridgeDraining):
		return ErrorMapping{http.StatusServiceUnavailable, "draining", 0}
	case errors.Is(err, ErrBridgeBusy):
		return ErrorMapping{http.StatusServiceUnavailable, "bridge_busy", defaultBusyRetry}
	case errors.Is(err, cluster.ErrNoLiveNode):
		// Node failure is fail-stop: there is nothing to wait for, so no
		// Retry-After.
		return ErrorMapping{http.StatusServiceUnavailable, "no_live_node", 0}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The client went away mid-wait; the status is written into the void
		// but keeps the access log honest.
		return ErrorMapping{StatusClientClosedRequest, "client_closed_request", 0}
	default:
		return ErrorMapping{http.StatusInternalServerError, "invoke_failed", 0}
	}
}

// StatusClientClosedRequest is nginx's conventional status for a client that
// disconnected before the response was ready; net/http has no name for it.
const StatusClientClosedRequest = 499

// writeError emits the JSON error envelope plus the Retry-After header.
func writeError(w http.ResponseWriter, m ErrorMapping, err error) {
	w.Header().Set("Content-Type", "application/json")
	if m.RetryAfter > 0 {
		secs := int64((m.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(m.Status)
	msg := m.Code
	if err != nil {
		msg = err.Error()
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(errorEnvelope{Error: APIError{
		Code:         m.Code,
		Message:      msg,
		RetryAfterMs: int64(m.RetryAfter / time.Millisecond),
	}})
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
