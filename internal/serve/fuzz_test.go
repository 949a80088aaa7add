package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dataio"
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
// predict per scripted verdict, one without candidates, one with a bad key,
// one holding a key twice and one followed by more bytes, and a warm body
// followed by more bytes.
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
	f.Add(post, "/v1/predict", []byte(strings.Replace(valid, `"candidates"`, `"target":"a","target":"b","candidates"`, 1)))
	f.Add(post, "/v1/predict", []byte(valid+" trailing garbage"))
	f.Add(post, "/v1/adapters", []byte(`{"key":"EM/known"} {"key":"EM/known"}`))

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

// FuzzParsePredict: a predict body is untrusted bytes. Whatever they are,
// dataio.ParsePredict returns (never panics) and agrees with the decoder it
// replaced here, encoding/json's Decoder into PredictRequest
// (referencePredict): it errors whenever the reference does, and otherwise
// reads the same adapter and instance with Gold -1, save that a body
// holding a duplicate key (predictDuplicateKey), or followed by anything but
// whitespace, is refused. A nil and an empty list or map count as the same.
// What it accepts survives the client's encoding: PredictRequest over
// WireFrom, parsed again, gives the same adapter and instance.
//
// It lives here rather than beside ParsePredict because its reference is
// this package's; dataio's test binary does not link net, whose unique
// handles allocate after every GC and would unsettle TestParseJSONAllocs.
func FuzzParsePredict(f *testing.F) {
	one := `{"adapter":"ED/Beer","instance":{"id":"1","fields":[{"Name":"abv","Value":"5%"}],"target":"abv","candidates":["yes","no"],"meta":{"k":"v"}}}`
	// n arrays under an unknown key of the instance (level 2): 9,998 reach
	// encoding/json's limit of 10,000 levels, more pass it.
	nested := func(n int) string {
		return `{"adapter":"EM/A","instance":{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}}`
	}
	for _, s := range []string{
		one,
		" " + one + "\n",
		one + " trailing garbage",
		one + one,
		`{"adapter":"EM/A","instance":{"fields":[{"entity":"A","name":"t","value":"x"},{"Entity":"B","NAME":"t","vALUE":"y"}],"candidates":["yes","no"]}}`,
		`{"adapter":"EM/A","instance":{"target":"a","target":"b","candidates":["yes"]}}`,
		`{"adapter":"EM/A","instance":{"target":"a","TARGET":"b"}}`,
		`{"adapter":"EM/A","adapter":"EM/B","instance":{}}`,
		`{"adapter":"EM/A","instance":{"candidates":["yes","no"],"gold":0,"gold_text":"yes"}}`,
		`{"adapter":"EM/A","instance":{"candidates":["yes"],"gold":1.5e400,"gold_text":{"a":[true,null]}}}`,
		`{"adapter":"EM/A","instance":{"candidates":["yes"],"gold":0,"gold":1}}`,
		`{"adapter":null,"instance":{"id":null,"fields":null,"target":null,"candidates":null,"meta":null}}`,
		`{"adapter":"EM/A","instance":{"fields":[null,{"name":null,"value":null}],"candidates":["yes",null],"meta":{"k":null}}}`,
		`{"adapter":"EM/A","instance":null}`,
		`{"Adapter":"EM/A","INSTANCE":{"ID":"x","Candidates":["y"]}}`,
		`{"adapter":"EM/A","instance":{"meta":{"k":"a","k":"b"}}}`,
		`{"adapter":"EM/A","instance":{"meta":{"k":1}}}`,
		`{"adapter":"EM/A","instance":{"candidates":"yes"}}`,
		`{"adapter":5}`, `{"adapter":"EM/A","instance":[]}`, `{"adapter":"EM/A","extra":[1,{"b":2,"b":3}]}`,
		"{\"adapter\":\"\xff\",\"instance\":{\"id\":\"\\ud800\",\"candidates\":[\"\xc3\"]}}",
		`null`, ` null `, ``, ` `, `[]`, `"x"`, `{`, `{"adapter":"EM/A",}`,
		nested(9998),
		nested(9999),
		nested(10000),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		adapter, in, err := dataio.ParsePredict(blob)
		if err != nil && (adapter != "" || in != nil) {
			t.Fatalf("ParsePredict failed (%v) but returned %q, %+v", err, adapter, in)
		}
		ref, trailing, refErr := referencePredict(blob)
		switch {
		case refErr != nil:
			if err == nil {
				t.Fatalf("accepted what encoding/json refuses (%v)", refErr)
			}
		case trailing:
			if err == nil {
				t.Fatal("accepted a body followed by more bytes")
			}
		case predictDuplicateKey(t, blob):
			if err == nil {
				t.Fatal("accepted a body holding a duplicate key")
			}
		case err != nil:
			t.Fatalf("refused what encoding/json accepts: %v", err)
		default:
			samePredict(t, "against encoding/json", adapter, in, ref)
		}
		if err != nil {
			return
		}
		sent := PredictRequest{Adapter: adapter, Instance: WireFrom(in)}
		raw, err := json.Marshal(sent)
		if err != nil {
			t.Fatal(err)
		}
		backAdapter, back, err := dataio.ParsePredict(raw)
		if err != nil {
			t.Fatalf("an accepted body does not parse from its client encoding: %v\n%s", err, raw)
		}
		samePredict(t, "in the round trip", backAdapter, back, sent)
	})
}

// referencePredict is how the predict route read a body before
// dataio.ParsePredict: one Decoder.Decode into PredictRequest, which stops
// after the first value. trailing reports whether more than whitespace
// follows it.
func referencePredict(blob []byte) (pr PredictRequest, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	if err := dec.Decode(&pr); err != nil {
		return pr, false, err
	}
	return pr, len(bytes.TrimLeft(blob[dec.InputOffset():], " \t\r\n")) > 0, nil
}

func samePredict(t *testing.T, how, adapter string, in *data.Instance, want PredictRequest) {
	t.Helper()
	w := want.Instance
	if adapter != want.Adapter || in.Gold != -1 || in.ID != w.ID || in.Target != w.Target ||
		!slices.Equal(in.Fields, w.Fields) || !slices.Equal(in.Candidates, w.Candidates) || !maps.Equal(in.Meta, w.Meta) {
		t.Fatalf("%s: got %q %+v, want %q %+v", how, adapter, in, want.Adapter, w)
	}
}

// keyShape is what predictDuplicateKey knows of an object: the members a
// key may select (encoding/json's rule: an exact match, else a case-folded
// one) and the shape of each member's value. An array has its slot's shape,
// each element in turn; any other object has no members.
type keyShape struct {
	members []string
	values  map[string]*keyShape
}

// predictShape is a predict body's: the instance has no gold, so gold and
// gold_text are keys outside its shape.
var predictShape = &keyShape{
	members: []string{"adapter", "instance"},
	values: map[string]*keyShape{"instance": {
		members: []string{"id", "fields", "target", "candidates", "meta"},
		values:  map[string]*keyShape{"fields": {members: []string{"entity", "name", "value"}}},
	}},
}

// predictDuplicateKey reports whether the first value of a body
// encoding/json accepts holds an object with one key twice (compared
// unquoted), or two keys that select one member of the body, its instance
// or a field.
func predictDuplicateKey(t *testing.T, blob []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	token := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("walking a body encoding/json accepts: %v", err)
		}
		return tok
	}
	var walk func(s *keyShape) bool
	walk = func(s *keyShape) bool {
		switch token() {
		case json.Delim('['):
			for dec.More() {
				if walk(s) {
					return true
				}
			}
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				key := token().(string)
				id, value := "="+key, (*keyShape)(nil)
				if s != nil {
					i := slices.Index(s.members, key)
					if i < 0 {
						i = slices.IndexFunc(s.members, func(m string) bool { return strings.EqualFold(key, m) })
					}
					if i >= 0 {
						id, value = s.members[i], s.values[s.members[i]]
					}
				}
				if seen[id] || walk(value) {
					return true
				}
				seen[id] = true
			}
		default:
			return false
		}
		token() // the closer
		return false
	}
	return walk(predictShape)
}
