package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// roundTripFunc answers a request in process: no listener, no dial.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzParseErrorEnvelope: a peer's error answer is untrusted bytes. For any
// payload under any status in 400–599, Call returns a *WireError without
// panicking; its Retryable is ErrorRetryable(status) whatever the body
// claims, and errors.Is(we, ErrUnknownKey) holds exactly when the status is
// 404.
func FuzzParseErrorEnvelope(f *testing.F) {
	for _, s := range []struct {
		status  uint16
		payload string
	}{
		{404, `{"error":{"code":"not_found","message":"no adapter","retryable":false}}`},
		{404, "<html><body>404 page not found</body></html>"},
		{503, `{"error":{"code":"unavailable","message":"draining","retryable":true}}`},
		{400, `{"error":{"code":"bad_request","message":"x","retryable":true}}`},
		{429, `{"error":{"code":"","message":"no code"}}`},
		{500, `{"error":"flat string"}`},
		{502, `{"error":{"code":"upstream"}} trailing`},
		{499, ``},
		{599, strings.Repeat("é", 150)},
		{405, "\xff\xfe" + strings.Repeat("x", 300)},
		{504, `null`},
	} {
		f.Add(s.status, []byte(s.payload))
	}
	f.Fuzz(func(t *testing.T, status uint16, payload []byte) {
		code := 400 + int(status)%200
		client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: code,
				Header:     http.Header{},
				Body:       io.NopCloser(bytes.NewReader(payload)),
				Request:    req,
			}, nil
		})}
		err := Call(context.Background(), client, http.MethodPost, "http://peer.invalid/v1/predict", nil, struct{}{}, nil)
		var we *WireError
		if !errors.As(err, &we) {
			t.Fatalf("status %d: Call returned %v, want a *WireError", code, err)
		}
		if we.Status != code {
			t.Fatalf("WireError.Status = %d, want %d", we.Status, code)
		}
		if we.Retryable != ErrorRetryable(code) {
			t.Fatalf("status %d: Retryable = %v, want ErrorRetryable = %v (body %q)", code, we.Retryable, ErrorRetryable(code), payload)
		}
		if got := errors.Is(we, ErrUnknownKey); got != (code == http.StatusNotFound) {
			t.Fatalf("status %d: errors.Is(ErrUnknownKey) = %v", code, got)
		}
		_ = we.Error()
	})
}
