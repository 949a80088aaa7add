package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// Route is one row of the server's route table: everything about an
// endpoint that is policy rather than behaviour. Handle is the only way a
// route exists and the pipeline behind it the only place a row is enforced.
//
// Pattern is an exact path, or the subtree below it when it ends in "/".
// Label names the route on spans, serve.requests/<label>, pprof samples and
// access-log lines; a method the pattern does not serve is a 405 under the
// label of the pattern's first route. ShedDrain refuses with 503 +
// Retry-After while the server drains, ShedOverload with 429 + Retry-After
// past Options.MaxInflight. BodyCap > 0 declares a JSON body of at most that
// many bytes, read whole and decoded into Request.Body by json.Unmarshal
// before the handler runs (larger, malformed or followed by more bytes:
// 400); zero leaves the body unread. Deadline runs the handler under
// Options.RequestTimeout.
type Route struct {
	Method, Pattern, Label  string
	ShedDrain, ShedOverload bool
	BodyCap                 int64
	Deadline                bool

	// Set by Handle: whether the route carries an adapter key, its counter
	// name (built once, not per request), every stage after the method check.
	keyed   bool
	counter string
	run     func(http.ResponseWriter, *http.Request)
}

// Request is what a handler sees once the pipeline has admitted the
// request: the decoded body and, on keyed routes, the validated adapter key.
type Request[T any] struct {
	*http.Request
	Key  string
	Body T
}

// None is the body type of routes that declare no body.
type None = struct{}

// maxBodyBytes caps the JSON bodies of the built-in routes.
const maxBodyBytes = 1 << 20

// unknownPath is the catch-all: a path no route owns is an enveloped 404,
// counted, logged and traced like any other answer.
var unknownPath = Route{Label: "unknown", counter: "serve.requests/unknown",
	run: func(w http.ResponseWriter, r *http.Request) {
		WriteErrorStatus(w, http.StatusNotFound, "no route "+r.URL.Path)
	}}

// Handle registers one route. Every request to it crosses the same stages,
// in this order and nowhere else: traceparent ingest/echo, span, counters
// and access log (instrument); method check; shed policy; body cap and
// decode; key validation; deadline; then h. Shedding precedes the decode so
// a server that is saying "not now" spends nothing on reading and parsing
// up to BodyCap bytes it is about to refuse. key extracts the adapter key
// (nil: the route has none); a malformed one is a 400, a valid one rides the
// access log. Register routes before serving.
func Handle[T any](s *Server, rt Route, key func(*Request[T]) string, h func(context.Context, http.ResponseWriter, *Request[T])) {
	rt.keyed, rt.counter = key != nil, "serve.requests/"+rt.Label
	rt.run = func(w http.ResponseWriter, r *http.Request) {
		if rt.ShedDrain && s.draining.Load() {
			s.rec.Count("serve.shed_draining", 1)
			WriteError(w, ErrDraining)
			return
		}
		if n := s.inflight.Load(); rt.ShedOverload && s.opts.MaxInflight > 0 && n > int64(s.opts.MaxInflight) {
			s.rec.Count("serve.shed_overload", 1)
			WriteError(w, fmt.Errorf("%w: %d requests in flight", ErrOverloaded, n))
			return
		}
		rq := &Request[T]{Request: r}
		if rt.BodyCap > 0 {
			blob, err := readBody(w, r, rt.BodyCap)
			if err == nil {
				err = json.Unmarshal(blob, &rq.Body)
			}
			if err != nil {
				WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
				return
			}
		}
		ctx := r.Context()
		if key != nil {
			rq.Key = key(rq)
			if err := ValidateKey(rq.Key); err != nil {
				WriteError(w, err)
				return
			}
			requestInfoFrom(ctx).key = rq.Key
		}
		if rt.Deadline && s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		h(ctx, w, rq)
	}
	pattern := rt.Pattern
	routes, mounted := s.routes[pattern]
	s.routes[pattern] = append(routes, rt)
	if !mounted {
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { s.dispatch(s.routes[pattern], w, r) })
	}
}

// readBody reads r's body, at most limit bytes: in one read into a buffer of
// its declared Content-Length, else (length unknown, or declared over the
// limit) into a buffer that grows as the body arrives.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; 0 <= n && n <= limit {
		blob := make([]byte, n)
		_, err := io.ReadFull(body, blob)
		return blob, err
	}
	blob, err := io.ReadAll(body)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		err = fmt.Errorf("exceeds %d bytes", limit)
	}
	return blob, err
}

// dispatch is the method check: the pattern's route for r.Method (a GET
// route answers HEAD too, as in net/http), else a 405 naming the methods it
// does serve.
func (s *Server) dispatch(routes []Route, w http.ResponseWriter, r *http.Request) {
	for i := range routes {
		if m := routes[i].Method; m == r.Method || m == http.MethodGet && r.Method == http.MethodHead {
			s.instrument(&routes[i], w, r)
			return
		}
	}
	refusal := routes[0]
	refusal.run = func(w http.ResponseWriter, _ *http.Request) {
		allow := make([]string, len(routes))
		for i := range routes {
			allow[i] = routes[i].Method
		}
		w.Header().Set("Allow", strings.Join(allow, ", "))
		WriteErrorStatus(w, http.StatusMethodNotAllowed, strings.Join(allow, " or ")+" only")
	}
	s.instrument(&refusal, w, r)
}

// instrument wraps one answer in the full request-scoped observability
// path: it ingests the W3C `traceparent` header (so the serve.request span
// joins the caller's trace), threads the span and a requestInfo carrier
// through the request context for the registry/batcher to annotate, echoes
// a traceparent back (the server span's context when tracing is on, the
// inbound value verbatim otherwise), and emits counters, an exemplar-stamped
// latency observation, and one structured access-log line per request.
func (s *Server) instrument(e *Route, w http.ResponseWriter, r *http.Request) {
	inTP := r.Header.Get(obs.TraceparentHeader)
	var remote obs.SpanContext
	if inTP != "" {
		remote, _ = obs.ParseTraceparent(inTP) // malformed → fresh trace
	}
	_, span := s.rec.StartSpanIn("serve.request", remote)
	span.SetAttr("route", e.Label)
	span.SetAttr("method", r.Method)
	traceID := span.Context().Trace.String()
	if span != nil {
		w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(span.Context()))
	} else if inTP != "" {
		// No tracer wired: echo the caller's header verbatim so propagation
		// is still observable end to end.
		w.Header().Set(obs.TraceparentHeader, inTP)
	}

	ri := &requestInfo{}
	ctx := withRequestInfo(r.Context(), ri)
	ctx = obs.ContextWithSpan(ctx, span)

	s.rec.SetGauge("serve.inflight", float64(s.inflight.Add(1)))
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	// The handler runs under a pprof route label, so CPU samples burned
	// anywhere below attribute to the route; the labeled context flows
	// down to the batcher, which stacks key/batch labels on top.
	profile.Do(ctx, func(lctx context.Context) {
		r = r.WithContext(lctx)
		e.run(sw, r)
	}, profile.LabelRoute, e.Label)
	dur := time.Since(start)
	s.rec.SetGauge("serve.inflight", float64(s.inflight.Add(-1)))

	span.SetAttr("status", sw.status)
	if ri.key != "" {
		span.SetAttr("key", ri.key)
	}
	span.End()
	s.rec.Count("serve.requests", 1)
	s.rec.Count(e.counter, 1)
	if sw.status >= 400 {
		s.rec.Count("serve.request_errors", 1)
	}
	s.rec.ObserveEx("serve.request_us", float64(dur.Microseconds()), nil, traceID)

	slow := s.opts.SlowRequest > 0 && dur >= s.opts.SlowRequest
	if slow {
		// A slow request pokes the profile trigger (nil-safe, cooldown
		// inside): the capture of the moment it happened lands next to the
		// access-log line that flagged it.
		s.opts.Profiles.Capture(e.Label)
	}

	if s.opts.AccessLog != nil {
		level := slog.LevelInfo
		if slow || sw.status >= 500 {
			level = slog.LevelWarn
		}
		s.opts.AccessLog.LogAttrs(r.Context(), level, "request",
			slog.String("trace", traceID),
			slog.String("route", e.Label),
			slog.String("method", r.Method),
			slog.Int("status", sw.status),
			slog.String("key", ri.key),
			slog.Int64("batch", ri.batchSize.Load()),
			slog.Int64("queue_us", ri.queueUS.Load()),
			slog.Int64("dur_us", dur.Microseconds()),
			slog.Bool("slow", slow),
		)
	}
}

// statusWriter remembers the response code for the span and error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
