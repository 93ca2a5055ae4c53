package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wasmcontainers/internal/cluster"
	"wasmcontainers/internal/serve"
)

// decodeEnvelope asserts that resp is a JSON error envelope with a code and
// returns it.
func decodeEnvelope(t *testing.T, resp *http.Response, body []byte) APIError {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("status %d has Content-Type %q, want application/json: %q", resp.StatusCode, ct, body)
	}
	var e errorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("status %d body is not an error envelope (%v): %q", resp.StatusCode, err, body)
	}
	return e.Error
}

// TestUnmatchedRoutesUseEnvelope pins the answers for requests no route
// takes: an unknown path, a retired one among them, is 404 unknown_route,
// and a known path under the wrong method is 405 method_not_allowed with its
// Allow header — both in the JSON envelope every other refusal uses.
func TestUnmatchedRoutesUseEnvelope(t *testing.T) {
	_, ts := newTestGateway(t, DefaultFunction())
	for _, tc := range []struct {
		method, path string
		status       int
		code, allow  string
	}{
		{http.MethodGet, "/nope", http.StatusNotFound, "unknown_route", ""},
		{http.MethodGet, "/v1/slo", http.StatusNotFound, "unknown_route", ""},
		{http.MethodPost, "/v1/cluster", http.StatusMethodNotAllowed, "method_not_allowed", "GET"},
		{http.MethodDelete, "/v1/functions/x", http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
	} {
		t.Run(tc.method+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			_, _ = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body.Bytes())
			}
			if e := decodeEnvelope(t, resp, body.Bytes()); e.Code != tc.code {
				t.Fatalf("code %q, want %q", e.Code, tc.code)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("Allow %q, want %q", got, tc.allow)
			}
		})
	}
}

// mapErrorCodes is every code MapError gives a 5xx.
func mapErrorCodes() map[string]bool {
	codes := map[string]bool{}
	for _, err := range []error{
		serve.ErrUnknownModule, serve.ErrQueueFull, serve.ErrConcurrencyLimit,
		serve.ErrQueueExpired, serve.ErrRequestTimeout,
		serve.ErrDraining, ErrBridgeDraining, ErrBridgeBusy, cluster.ErrNoLiveNode,
		context.Canceled, errors.New("unclassified"),
	} {
		if m := MapError(err, 0); m.Status >= 500 {
			codes[m.Code] = true
		}
	}
	return codes
}

// FuzzGatewayRequest sends method × path × body to a fresh dilation-0
// gateway through ServeHTTP. Whatever the input, the gateway must not panic,
// must answer within the deadline, must put every status >= 400 in the JSON
// error envelope with a code, and must give a 5xx only with a code MapError
// produces. A fresh gateway per input keeps every failure reproducible from
// its input alone.
func FuzzGatewayRequest(f *testing.F) {
	f.Add(http.MethodGet, "/nope", []byte(nil))
	f.Add(http.MethodGet, "/v1/slo", []byte(nil))
	f.Add(http.MethodPost, "/v1/cluster", []byte(nil))
	f.Add(http.MethodDelete, "/v1/functions/x", []byte(nil))
	f.Add("", "/healthz", []byte(nil))
	f.Add(http.MethodGet, "/v1/functions/../metrics", []byte(nil))
	f.Add(http.MethodPost, "/v1/functions/request-handler", bytes.Repeat([]byte("x"), 64<<10))
	f.Add(http.MethodPost, "/v1/containers/create", []byte(`{"Runtime":"nope"}`))
	serverCodes := mapErrorCodes()

	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		if !strings.HasPrefix(path, "/") {
			return // not a request target a server would route
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, "http://gateway"+path, bytes.NewReader(body))
		if err != nil {
			return // net/http would refuse this request before routing it
		}
		gw, err := New(Config{Bridge: BridgeConfig{Dilation: 0}})
		if err != nil {
			t.Fatal(err)
		}
		gw.Start()
		defer gw.Bridge().Stop()

		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode == StatusClientClosedRequest {
			t.Fatalf("%s %q did not finish within the deadline", method, path)
		}
		if resp.StatusCode < 400 {
			return
		}
		e := decodeEnvelope(t, resp, rec.Body.Bytes())
		if resp.StatusCode >= 500 && !serverCodes[e.Code] {
			t.Fatalf("%s %q: status %d with code %q, which MapError never gives a 5xx",
				method, path, resp.StatusCode, e.Code)
		}
	})
}
