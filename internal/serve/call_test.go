package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWireRoundTrip is the property that makes WireError the inverse of
// statusFor: whatever error a handler hands WriteError, the caller on the
// other side of the wire sees the same sentinel (and no other), the
// retryable flag of that status, and the handler's message.
func TestWireRoundTrip(t *testing.T) {
	sentinels := []error{ErrBadKey, ErrUnknownKey, ErrOverloaded, ErrDraining}
	errs := append([]error{
		context.DeadlineExceeded, // 504: no sentinel, retryable
		context.Canceled,         // 499: no sentinel, not retryable
		errors.New("transfer exploded"),
	}, sentinels...)
	for _, sent := range errs {
		t.Run(sent.Error(), func(t *testing.T) {
			werr := fmt.Errorf("%w: while testing", sent)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				WriteError(w, werr)
			}))
			defer srv.Close()
			err := Call(context.Background(), srv.Client(), http.MethodPost, srv.URL, nil, WarmRequest{Key: "EM/A"}, nil)
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("Call = %v, want a *WireError", err)
			}
			status := statusFor(werr)
			if we.Status != status || we.Code != ErrorCode(status) || we.Message != werr.Error() {
				t.Errorf("WireError = %+v, want status %d code %s message %q", we, status, ErrorCode(status), werr)
			}
			if we.Retryable != ErrorRetryable(status) {
				t.Errorf("Retryable = %v, want %v for %d", we.Retryable, ErrorRetryable(status), status)
			}
			for _, s := range sentinels {
				if got, want := errors.Is(err, s), errors.Is(werr, s); got != want {
					t.Errorf("errors.Is(%v) = %v across the wire, %v before it", s, got, want)
				}
			}
		})
	}
}

// TestCallShapes covers what Call does besides error mapping: request
// body and headers out, response body in, and the two failures that are
// not a WireError.
func TestCallShapes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/echo":
			body, _ := io.ReadAll(req.Body)
			WriteJSON(w, http.StatusOK, map[string]string{
				"method": req.Method, "ctype": req.Header.Get("Content-Type"),
				"trace": req.Header.Get("traceparent"), "body": string(body),
			})
		case "/garbage":
			io.WriteString(w, `{"key":"EM/A","co`)
		case "/plain404":
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, "  "+strings.Repeat("x", 300)+"\n")
		}
	}))
	defer srv.Close()
	ctx := context.Background()

	var got map[string]string
	hdr := http.Header{"Traceparent": {"00-abc-def-01"}}
	if err := Call(ctx, srv.Client(), http.MethodPost, srv.URL+"/echo", hdr, WarmRequest{Key: "EM/A"}, &got); err != nil {
		t.Fatal(err)
	}
	if got["method"] != "POST" || got["ctype"] != "application/json" || got["trace"] != "00-abc-def-01" || got["body"] != `{"key":"EM/A"}` {
		t.Errorf("server saw %v", got)
	}
	if err := Call(ctx, srv.Client(), http.MethodGet, srv.URL+"/echo", nil, nil, &got); err != nil || got["body"] != "" || got["ctype"] != "" {
		t.Errorf("bodiless GET: err %v, server saw %v", err, got)
	}

	var wr WarmResponse
	err := Call(ctx, srv.Client(), http.MethodGet, srv.URL+"/garbage", nil, nil, &wr)
	var we *WireError
	if err == nil || errors.As(err, &we) {
		t.Errorf("undecodable 200 = %v, want a plain error", err)
	}
	if err := Call(ctx, srv.Client(), http.MethodGet, srv.URL+"/garbage", nil, nil, nil); err != nil {
		t.Errorf("200 with nothing to decode into = %v, want nil", err)
	}

	err = Call(ctx, srv.Client(), http.MethodGet, srv.URL+"/plain404", nil, nil, nil)
	if !errors.As(err, &we) || !errors.Is(err, ErrUnknownKey) || we.Code != "" || we.Retryable {
		t.Fatalf("non-envelope 404 = %v (%+v), want ErrUnknownKey with no code", err, we)
	}
	if want := strings.Repeat("x", 200) + "…"; we.Message != want {
		t.Errorf("message = %q, want the body trimmed to 200 bytes", we.Message)
	}

	srv.Close()
	err = Call(ctx, srv.Client(), http.MethodGet, srv.URL+"/echo", nil, nil, nil)
	if err == nil || errors.As(err, &we) {
		t.Errorf("dead server = %v, want a transport error", err)
	}
}
