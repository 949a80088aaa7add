package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
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

// pipelineMethods are the request methods FuzzRequestPipeline selects from.
var pipelineMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
	http.MethodDelete, http.MethodOptions, http.MethodTrace,
}

// pipelineVerdicts script the fuzz stub's answer by dataset: one key per
// sentinel statusFor maps, every other key succeeds.
var pipelineVerdicts = map[string]error{
	"unknown":    ErrUnknownKey,
	"overloaded": ErrOverloaded,
	"draining":   ErrDraining,
	"timeout":    context.DeadlineExceeded,
	"canceled":   context.Canceled,
	"boom":       errors.New("backend exploded"),
}

// pipelineStub is the resolver behind FuzzRequestPipeline: it fails the
// input if the pipeline hands it a key ValidateKey refuses or a predict
// without candidates, and otherwise answers by pipelineVerdicts.
type pipelineStub struct{ t *testing.T }

func (s pipelineStub) verdict(key string) error {
	if err := ValidateKey(key); err != nil {
		s.t.Errorf("resolver reached with key %q: %v", key, err)
	}
	_, dataset, _ := strings.Cut(key, "/")
	return pipelineVerdicts[dataset]
}

func (s pipelineStub) Predict(_ context.Context, key string, in *data.Instance) (string, bool, error) {
	if len(in.Candidates) == 0 {
		s.t.Errorf("predict for %q reached the resolver without candidates", key)
	}
	return "yes", false, s.verdict(key)
}

func (s pipelineStub) Warm(_ context.Context, key string) (bool, error) {
	return true, s.verdict(key)
}

func (s pipelineStub) Evict(_ context.Context, key string) (bool, error) {
	return true, s.verdict(key)
}

func (pipelineStub) Snapshot() []KeyStats { return []KeyStats{{Key: "EM/known", Resident: true}} }
func (pipelineStub) Resident() int        { return 1 }

// FuzzRequestPipeline: any method, path and body through the server's
// route table. Nothing panics; a path net/http must clean is redirected
// once, to a path the table answers; every other status is 2xx or a row of
// wireStatuses; every non-2xx body is the envelope with the code and
// retryable flag of its status; the resolver only ever sees keys ValidateKey
// accepts, and never a predict without candidates. The seed corpus holds
// one valid and one malformed request per route in Server.routes, plus one
// predict per scripted verdict, one without candidates and one with a bad
// key.
func FuzzRequestPipeline(f *testing.F) {
	const valid = `{"adapter":"EM/known","key":"EM/known","instance":{"fields":[{"name":"a","value":"1"}],"candidates":["yes","no"]}}`
	methodIndex := func(m string) uint8 {
		for i, pm := range pipelineMethods {
			if pm == m {
				return uint8(i)
			}
		}
		f.Fatalf("method %s missing from pipelineMethods", m)
		return 0
	}
	table := NewServer(pipelineStub{}, Options{}).routes
	patterns := make([]string, 0, len(table))
	for pattern := range table {
		patterns = append(patterns, pattern)
	}
	sort.Strings(patterns)
	for _, pattern := range patterns {
		for _, rt := range table[pattern] {
			path := pattern
			if rt.keyed && strings.HasSuffix(pattern, "/") {
				path += "EM/known"
			}
			f.Add(methodIndex(rt.Method), path, []byte(valid))
			switch {
			case rt.BodyCap > 0:
				f.Add(methodIndex(rt.Method), path, []byte(`{"adapter":"EM/known","instance":{"candidates":`))
			case rt.keyed:
				f.Add(methodIndex(rt.Method), pattern+"no-slash", []byte(nil))
			default:
				f.Add(methodIndex(http.MethodPatch), path, []byte(nil))
			}
		}
	}
	post := methodIndex(http.MethodPost)
	for dataset := range pipelineVerdicts {
		f.Add(post, "/v1/predict", []byte(strings.Replace(valid, "EM/known", "EM/"+dataset, 2)))
	}
	f.Add(post, "/v1/predict", []byte(strings.Replace(valid, `"candidates":["yes","no"]`, `"candidates":[]`, 1)))
	f.Add(post, "/v1/predict", []byte(strings.Replace(valid, "EM/known", "no-slash", 2)))

	f.Fuzz(func(t *testing.T, method uint8, path string, body []byte) {
		m := pipelineMethods[int(method)%len(pipelineMethods)]
		do := func(path string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(m, "/", bytes.NewReader(body))
			req.URL.Path = path
			w := httptest.NewRecorder()
			NewServer(pipelineStub{t}, Options{}).ServeHTTP(w, req)
			return w
		}
		w := do(path)
		if w.Code == http.StatusMovedPermanently {
			// net/http's ServeMux redirects a path it has to clean (no
			// leading "/", a "//", a "..") before any route sees it. The
			// target is canonical, so the route table answers it.
			loc, err := url.Parse(w.Header().Get("Location"))
			if err != nil {
				t.Fatalf("%s %q: redirect to unparseable %q", m, path, w.Header().Get("Location"))
			}
			path = loc.Path
			if w = do(path); w.Code == http.StatusMovedPermanently {
				t.Fatalf("%s %q: redirected twice", m, path)
			}
		}

		status := w.Code
		if status/100 == 2 {
			return
		}
		if row := statusRow(status); row.status != status {
			t.Fatalf("%s %q: status %d is not a row of wireStatuses (body %q)", m, path, status, w.Body)
		}
		env, ok := ParseErrorEnvelope(w.Body.Bytes())
		if !ok {
			t.Fatalf("%s %q: status %d body is not the envelope: %q", m, path, status, w.Body)
		}
		if env.Code != ErrorCode(status) || env.Retryable != ErrorRetryable(status) {
			t.Fatalf("%s %q: status %d envelope code %q retryable %v, want %q %v",
				m, path, status, env.Code, env.Retryable, ErrorCode(status), ErrorRetryable(status))
		}
	})
}
