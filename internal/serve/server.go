package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// Server is the HTTP face of the service: a route table over a Resolver
// (the local Registry, or internal/cluster's Router) plus the live telemetry
// endpoints. Build one with NewServer and mount it anywhere an
// http.Handler goes (net/http, httptest, ...).
//
//	POST   /v1/predict        {"adapter": "EM/Walmart-Amazon", "instance": {...}}
//	POST   /v1/adapters       {"key": "EM/Walmart-Amazon"}   (warm: trigger a Transfer)
//	GET    /v1/adapters       resolver snapshot (per-key transfers/hits/misses)
//	GET    /v1/adapters/{key} single-key stats (404 envelope on unknown)
//	DELETE /v1/adapters/{key} explicit eviction (retires per-key gauges)
//	GET    /healthz           liveness: process up + build/occupancy context
//	GET    /readyz            readiness: accepting work (503 while draining/unready)
//	GET    /metrics.json      registry snapshot as JSON (when a metrics registry is wired)
//
// Every route but the /metrics.json scrape is a row of the table in
// NewServer and crosses the one pipeline (Handle), so every error body here
// — a wrong method and an unknown path included — is the versioned JSON
// envelope (ErrorEnvelope), counted, logged and traced; plain-text error
// responses do not exist here.
type Server struct {
	res      Resolver
	opts     Options
	rec      *obs.Recorder
	mux      *http.ServeMux
	routes   map[string][]Route // by pattern, in registration order
	start    time.Time
	revision string
	inflight atomic.Int64
	draining atomic.Bool
}

// adaptersPath is the subtree of the single-key routes; the key below it
// contains a slash itself (task/dataset).
const adaptersPath = "/v1/adapters/"

// NewServer wraps a resolver in the HTTP API. Of opts the server reads
// RequestTimeout, MaxInflight, Rec, AccessLog, SlowRequest and Profiles;
// the registry knobs are the registry's own.
func NewServer(res Resolver, opts Options) *Server {
	opts = opts.WithDefaults()
	s := &Server{
		res:      res,
		opts:     opts,
		rec:      opts.Rec,
		mux:      http.NewServeMux(),
		routes:   map[string][]Route{},
		start:    time.Now(),
		revision: vcsRevision(),
	}
	pathKey := func(rq *Request[None]) string { return strings.TrimPrefix(rq.URL.Path, adaptersPath) }
	Handle(s, Route{Method: http.MethodPost, Pattern: "/v1/predict", Label: "predict",
		ShedDrain: true, ShedOverload: true, BodyCap: maxBodyBytes, Deadline: true},
		func(rq *Request[predictBody]) string { return rq.Body.adapter }, s.predict)
	Handle(s, Route{Method: http.MethodGet, Pattern: "/v1/adapters", Label: "adapters"}, nil, s.adapters)
	Handle(s, Route{Method: http.MethodPost, Pattern: "/v1/adapters", Label: "warm",
		ShedDrain: true, BodyCap: maxBodyBytes, Deadline: true},
		func(rq *Request[WarmRequest]) string { return rq.Body.Key }, s.warm)
	Handle(s, Route{Method: http.MethodGet, Pattern: adaptersPath, Label: "adapters"}, pathKey, s.adapterStats)
	Handle(s, Route{Method: http.MethodDelete, Pattern: adaptersPath, Label: "evict", Deadline: true}, pathKey, s.evict)
	Handle(s, Route{Method: http.MethodGet, Pattern: "/healthz", Label: "healthz"}, nil, s.healthz)
	Handle(s, Route{Method: http.MethodGet, Pattern: "/readyz", Label: "readyz"}, nil, s.readyz)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.instrument(&unknownPath, w, r)
	})
	if opts.Rec != nil && opts.Rec.Metrics != nil {
		obs.MountMetrics(s.mux, opts.Rec.Metrics)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain flips the server into draining: /readyz reports 503 so
// health-checked routers stop sending, and new predict/warm calls shed
// with 503 + Retry-After while requests already in flight finish. Pair it
// with http.Server.Shutdown for a zero-loss rolling restart.
func (s *Server) StartDrain() {
	s.draining.Store(true)
}

// WireInstance is the JSON shape of a data.Instance on the predict
// endpoint, as a client encodes it; its fields keep data.Field's own shape.
// Gold is deliberately absent: the service answers questions, it does not
// score them.
type WireInstance struct {
	ID         string            `json:"id,omitempty"`
	Fields     []data.Field      `json:"fields"`
	Target     string            `json:"target,omitempty"`
	Candidates []string          `json:"candidates,omitempty"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// WireFrom converts a data.Instance to its JSON wire shape. The gold label
// is not carried: callers that know it (the drills) keep it on their side
// of the wire.
func WireFrom(in *data.Instance) WireInstance {
	return WireInstance{
		ID:         in.ID,
		Fields:     in.Fields,
		Target:     in.Target,
		Candidates: in.Candidates,
		Meta:       in.Meta,
	}
}

// PredictRequest is the body of POST /v1/predict, as a client encodes it.
// The server reads it as predictBody.
type PredictRequest struct {
	Adapter  string       `json:"adapter"`
	Instance WireInstance `json:"instance"`
}

// predictBody is the body of POST /v1/predict as the server reads it: by
// dataio.ParsePredict, the instance grammar a job file is read by, so a
// duplicate key is a 400 here as it is an error there.
type predictBody struct {
	adapter  string
	instance *data.Instance // Gold -1: the service never sees labels
}

func (b *predictBody) UnmarshalJSON(blob []byte) (err error) {
	b.adapter, b.instance, err = dataio.ParsePredict(blob)
	return err
}

// PredictResponse is the body of a successful predict call. Cold reports
// that this request found the adapter non-resident and waited on a
// Transfer (its own or a coalesced one).
type PredictResponse struct {
	Adapter string `json:"adapter"`
	Answer  string `json:"answer"`
	Cold    bool   `json:"cold"`
}

// WarmRequest is the body of POST /v1/adapters.
type WarmRequest struct {
	Key string `json:"key"`
}

// WarmResponse reports the outcome of a warm call.
type WarmResponse struct {
	Key  string `json:"key"`
	Cold bool   `json:"cold"`
}

// EvictResponse is the body of DELETE /v1/adapters/{key}. Evicted is
// false when the key is known but nothing was resident to drop.
type EvictResponse struct {
	Key     string `json:"key"`
	Evicted bool   `json:"evicted"`
}

// AdaptersResponse is the body of GET /v1/adapters.
type AdaptersResponse struct {
	Resident int        `json:"resident"`
	Adapters []KeyStats `json:"adapters"`
}

// HealthResponse is the body of GET /healthz: liveness plus enough build
// and occupancy context to identify what is running ("which revision is
// this, how full is it") from one curl.
type HealthResponse struct {
	OK        bool    `json:"ok"`
	Draining  bool    `json:"draining,omitempty"`
	UptimeS   float64 `json:"uptime_s"`
	GoVersion string  `json:"go_version"`
	Revision  string  `json:"revision,omitempty"`
	Resident  int     `json:"resident"`
	// MaxBatch and MaxAdapt describe a local Registry — its own options, as
	// it defaulted them — and are absent in front of any other resolver: a
	// router has no batcher to report.
	MaxBatch int `json:"max_batch,omitempty"`
	MaxAdapt int `json:"max_adapters,omitempty"`
	// Goroutines / HeapLiveBytes are fresh runtime readings taken at
	// request time.
	Goroutines    int64  `json:"goroutines"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
}

// ReadyResponse is the body of GET /readyz. Resident rides along so a
// router's periodic probe doubles as a cheap occupancy reading.
type ReadyResponse struct {
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Resident int    `json:"resident"`
}

// vcsRevision extracts the VCS revision stamped into the binary at build
// time (empty for `go test` binaries and builds outside a checkout).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

func (s *Server) predict(ctx context.Context, w http.ResponseWriter, rq *Request[predictBody]) {
	if len(rq.Body.instance.Candidates) == 0 {
		// Prediction ranks candidate answers (DESIGN.md: open-domain tasks
		// are realized as ranking), so an empty set is unanswerable.
		WriteErrorStatus(w, http.StatusBadRequest, "instance needs candidate answers")
		return
	}
	ans, cold, err := s.res.Predict(ctx, rq.Key, rq.Body.instance)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, PredictResponse{Adapter: rq.Key, Answer: ans, Cold: cold})
}

func (s *Server) warm(ctx context.Context, w http.ResponseWriter, rq *Request[WarmRequest]) {
	cold, err := s.res.Warm(ctx, rq.Key)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, WarmResponse{Key: rq.Key, Cold: cold})
}

func (s *Server) adapters(_ context.Context, w http.ResponseWriter, _ *Request[None]) {
	WriteJSON(w, http.StatusOK, AdaptersResponse{Resident: s.res.Resident(), Adapters: s.res.Snapshot()})
}

// adapterStats serves GET /v1/adapters/{key}: one key's entry of the
// snapshot, a 404 envelope when the resolver has never seen it.
func (s *Server) adapterStats(_ context.Context, w http.ResponseWriter, rq *Request[None]) {
	for _, ks := range s.res.Snapshot() {
		if ks.Key == rq.Key {
			WriteJSON(w, http.StatusOK, ks)
			return
		}
	}
	WriteError(w, fmt.Errorf("%w: no stats for %q", ErrUnknownKey, rq.Key))
}

// evict serves DELETE /v1/adapters/{key}: drop the resident adapter
// (retiring its per-key gauges, exactly like an LRU eviction) without
// touching its request counters. A key the resolver has never seen is a
// 404; a known key that simply is not resident right now evicts nothing
// and reports evicted=false.
func (s *Server) evict(ctx context.Context, w http.ResponseWriter, rq *Request[None]) {
	evicted, err := s.res.Evict(ctx, rq.Key)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, EvictResponse{Key: rq.Key, Evicted: evicted})
}

func (s *Server) healthz(_ context.Context, w http.ResponseWriter, _ *Request[None]) {
	hr := HealthResponse{
		OK:        true,
		Draining:  s.draining.Load(),
		UptimeS:   time.Since(s.start).Seconds(),
		GoVersion: runtime.Version(),
		Revision:  s.revision,
		Resident:  s.res.Resident(),
	}
	hr.Goroutines, hr.HeapLiveBytes = profile.QuickReadings()
	if reg, ok := s.res.(*Registry); ok {
		hr.MaxBatch, hr.MaxAdapt = reg.opts.MaxBatch, reg.opts.MaxAdapters
	}
	WriteJSON(w, http.StatusOK, hr)
}

// readyz is the readiness probe: 200 only while the server is accepting
// new work. It diverges from /healthz (pure liveness) exactly when a router
// should stop routing here — during a drain, or when the resolver itself
// reports unready (the cluster router with zero healthy backends). 503s
// carry Retry-After like any other shed response.
func (s *Server) readyz(_ context.Context, w http.ResponseWriter, _ *Request[None]) {
	resp := ReadyResponse{OK: true, Draining: s.draining.Load(), Resident: s.res.Resident()}
	var err error
	if resp.Draining {
		err = ErrDraining
	} else if rc, ok := s.res.(ReadyChecker); ok {
		err = rc.Ready()
	}
	if err != nil {
		resp.OK, resp.Reason = false, err.Error()
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}
