package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/akb"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/skc"
	"repro/internal/tasks"
)

// tracing is the traced run's recorder: one obs.Tracer over an in-memory
// buffer plus the decorators that open a span at every layer boundary the
// harness can reach from outside. Nothing inside the program is handed the
// recorder (no Rec on zoo, registry, router or engine); parents travel in
// the harness's own context key and, across HTTP, in a traceparent header.
// A nil *tracing is the untraced run: every rig constructor then installs
// the program's own objects with no decorator in the path.
type tracing struct {
	buf bytes.Buffer
	t   *obs.Tracer

	// byInstance maps the *data.Instance a resolver was handed to its
	// resolve span, which is how the adapter decorator — called on the
	// batcher's goroutine with the same pointers — finds the requests a
	// batch answers. pending maps an adapter key to the resolve span of a
	// request waiting on it, which is how the Transferer decorator — called
	// under a context detached from the request — finds its parent.
	byInstance sync.Map
	pending    sync.Map

	// adapter counters, per batch (spans are per member request).
	busyNs  atomic.Int64
	batches atomic.Int64
	rows    atomic.Int64
}

func newTracing() *tracing {
	t := &tracing{}
	t.t = obs.NewTracer(&t.buf)
	return t
}

type spanKey struct{}

func withSpan(ctx context.Context, s *obs.Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *obs.Span {
	s, _ := ctx.Value(spanKey{}).(*obs.Span)
	return s
}

// startOp opens the root span of one measured operation.
func (t *tracing) startOp(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.t.StartSpan(name)
}

// ---- HTTP server side: serve.http ----

// handler wraps a serve.Server: the serve.http span covers the whole
// server-side handling of one request and parents whatever the resolver
// decorator opens below it.
func (t *tracing) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remote, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		if err != nil { // probes and warm-up traffic carry no parent
			next.ServeHTTP(w, r)
			return
		}
		span := t.t.StartSpanIn("serve.http", remote)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), span)))
		span.End()
	})
}

// ---- resolver: serve.resolve / cluster.route ----

type tracedResolver struct {
	serve.Resolver
	t    *tracing
	name string
	// local marks a resolver over a Registry in this process: its instance
	// pointers reach the adapter decorator, and its keys the Transferer.
	local bool
}

func (t *tracing) resolver(inner serve.Resolver, name string, local bool) serve.Resolver {
	if t == nil {
		return inner
	}
	return &tracedResolver{Resolver: inner, t: t, name: name, local: local}
}

func (r *tracedResolver) Predict(ctx context.Context, key string, in *data.Instance) (string, bool, error) {
	parent := spanFrom(ctx)
	if parent == nil {
		return r.Resolver.Predict(ctx, key, in)
	}
	span := parent.StartChild(r.name)
	if r.local {
		r.t.byInstance.Store(in, span)
		r.t.pending.Store(key, span)
	}
	ans, cold, err := r.Resolver.Predict(withSpan(ctx, span), key, in)
	if r.local {
		r.t.byInstance.Delete(in)
		r.t.pending.CompareAndDelete(key, span)
	}
	span.SetAttr("cold", cold)
	span.End()
	return ans, cold, err
}

// ---- adapter: serve.adapter ----

type tracedAdapter struct {
	inner *core.Adapted
	t     *tracing
}

func (a *tracedAdapter) Predict(ctx context.Context, in *data.Instance) string {
	ins := [1]*data.Instance{in}
	if out := a.PredictBatch(ctx, ins[:]); len(out) == 1 {
		return out[0]
	}
	return ""
}

// PredictBatch times one batch. Each member request waited for the whole
// batch, so each gets a serve.adapter child of its own covering it; the
// per-batch counters are kept beside the spans so busy time is not counted
// once per member.
func (a *tracedAdapter) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	spans := make([]*obs.Span, 0, len(ins))
	for _, in := range ins {
		if v, ok := a.t.byInstance.Load(in); ok {
			s := v.(*obs.Span).StartChild("serve.adapter")
			s.SetAttr("size", len(ins))
			spans = append(spans, s)
		}
	}
	start := time.Now()
	out := a.inner.PredictBatch(ctx, ins)
	if len(spans) > 0 { // a batch of measured requests, not of warm-up traffic
		a.t.busyNs.Add(int64(time.Since(start)))
		a.t.batches.Add(1)
		a.t.rows.Add(int64(len(ins)))
	}
	for _, s := range spans {
		s.End()
	}
	return out
}

// ---- transferer: core.transfer and the replayed adapt path ----

// transferer is the Transferer decorator of the traced run. It replays
// Zoo.TransferDataset from its public parts — the same fusion, few-shot
// fine-tune and knowledge search on the same seeds — so that each stage
// gets a span; verifyReplay pins the replay byte-identical to the real
// thing before the traced window opens.
func (t *tracing) transferer(z *eval.Zoo) serve.Transferer {
	return func(ctx context.Context, key string) (serve.Adapter, error) {
		var parent *obs.Span
		if v, ok := t.pending.Load(key); ok {
			parent = v.(*obs.Span)
		}
		ad, err := t.replayTransfer(ctx, z, key, parent)
		if err != nil {
			return nil, err
		}
		return &tracedAdapter{inner: ad, t: t}, nil
	}
}

func (t *tracing) replayTransfer(ctx context.Context, z *eval.Zoo, key string, parent *obs.Span) (*core.Adapted, error) {
	b, ok := z.FindDownstream(key)
	if !ok {
		return nil, fmt.Errorf("%w: %q", serve.ErrUnknownKey, key)
	}
	span := parent.StartChild("core.transfer")
	defer span.End()
	span.SetAttr("key", key)

	fewshot := b.DS.FewShot(rand.New(rand.NewSource(z.Seed)), eval.FewShotN)
	examples := model.ExamplesFrom(b.Kind, fewshot, nil)
	opts := skc.Options{Strategy: lora.StrategyAdaptive, Seed: z.Seed}

	s := span.StartChild("skc.fuse")
	tr, err := skc.BuildFusion(z.Upstream(zooSize), z.Patches(zooSize), opts)
	s.End()
	if err != nil {
		return nil, err
	}
	s = span.StartChild("skc.fewshot_ft")
	skc.FewShotFineTune(tr, examples, opts)
	s.End()

	s = span.StartChild("akb.search")
	res := akb.SearchFallible(ctx,
		&tracedPredictor{m: tr.Model, parent: s},
		&tracedOracle{inner: akb.AsFallible(oracle.New(z.Seed + 771)), parent: s},
		b.Kind, fewshot, nil, akb.Config{Seed: z.Seed})
	s.End()
	return &core.Adapted{Kind: b.Kind, Model: tr.Model, Fusion: tr.Fusion, Knowledge: res.Best, AKBResult: res}, nil
}

// tracedPredictor sits on the akb.Predictor/BatchPredictor seam: one
// akb.eval span per validation pass, carrying the rows it scored.
type tracedPredictor struct {
	m      *model.Model
	parent *obs.Span
}

func (p *tracedPredictor) PredictWith(spec tasks.Spec, in *data.Instance, k *tasks.Knowledge) string {
	s := p.parent.StartChild("akb.eval")
	s.SetAttr("rows", 1)
	defer s.End()
	return p.m.PredictWith(spec, in, k)
}

func (p *tracedPredictor) PredictBatchWith(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string {
	s := p.parent.StartChild("akb.eval")
	s.SetAttr("rows", len(ins))
	defer s.End()
	return p.m.PredictBatchWith(spec, ins, k)
}

// tracedOracle sits on the akb.FallibleOracle seam: one oracle.call span
// per Generate / Feedback / Refine — the paper's Table III cost driver.
type tracedOracle struct {
	inner  akb.FallibleOracle
	parent *obs.Span
}

func (o *tracedOracle) call(op string) *obs.Span {
	s := o.parent.StartChild("oracle.call")
	s.SetAttr("op", op)
	return s
}

func (o *tracedOracle) Generate(ctx context.Context, req akb.GenerateRequest) ([]*tasks.Knowledge, error) {
	defer o.call("generate").End()
	return o.inner.Generate(ctx, req)
}

func (o *tracedOracle) Feedback(ctx context.Context, req akb.FeedbackRequest) (string, error) {
	defer o.call("feedback").End()
	return o.inner.Feedback(ctx, req)
}

func (o *tracedOracle) Refine(ctx context.Context, req akb.RefineRequest) ([]*tasks.Knowledge, error) {
	defer o.call("refine").End()
	return o.inner.Refine(ctx, req)
}

// verifyReplay runs the replayed adapt path once per key in use and compares its
// answers on the whole test split, and its searched knowledge, with the
// reference built by Zoo.TransferDataset. It returns the mismatches.
func (t *tracing) verifyReplay(e *env) []string {
	var bad []string
	for _, key := range e.keys {
		ref, ok := e.refs[key]
		if !ok {
			continue
		}
		ad, err := t.replayTransfer(context.Background(), e.zoo, key, nil)
		if err != nil {
			bad = append(bad, fmt.Sprintf("replay %s: %v", key, err))
			continue
		}
		got := ad.PredictBatch(context.Background(), ref.test)
		for i := range ref.want {
			if i >= len(got) || got[i] != ref.want[i] {
				bad = append(bad, fmt.Sprintf("replay %s: answer %d differs from Zoo.TransferDataset", key, i))
				break
			}
		}
		if tasks.RenderKnowledgeText(ad.Knowledge) != ref.knowledge {
			bad = append(bad, fmt.Sprintf("replay %s: searched knowledge differs from Zoo.TransferDataset", key))
		}
	}
	return bad
}

// ---- cluster: cluster.attempt ----

// roundTripper decorates the router's backend client: one cluster.attempt
// span per backend call, ended when the response body is closed, with the
// span forwarded as traceparent so the backend's serve.http nests under it.
type roundTripper struct {
	inner http.RoundTripper
	t     *tracing
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if parent == nil {
		return rt.inner.RoundTrip(req)
	}
	span := parent.StartChild("cluster.attempt")
	req = req.Clone(req.Context())
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(span.Context()))
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		span.SetAttr("error", true)
		span.End()
		return nil, err
	}
	span.SetAttr("status", resp.StatusCode)
	resp.Body = &spanBody{ReadCloser: resp.Body, span: span}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	span *obs.Span
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.span.End()
	return err
}

// ---- analysis ----

// traceReport is what the span tree yields: per-name totals, the coverage
// of the root spans, and the derived per-layer numbers.
type traceReport struct {
	Spans    int
	Roots    int
	RootUS   int64
	Coverage float64
	ByName   map[string]analyze.NameStat
	Derived  map[string]float64
}

// analyzeTrace rebuilds the span tree with obs/analyze (self time = a
// span's duration minus its children's) and derives the numbers that need
// the tree rather than per-name totals.
func analyzeTrace(r io.Reader) (*traceReport, error) {
	tr, err := analyze.Load(r)
	if err != nil {
		return nil, err
	}
	rep := &traceReport{Spans: tr.Spans, Roots: len(tr.Roots), ByName: map[string]analyze.NameStat{}, Derived: map[string]float64{}}
	for _, s := range tr.Aggregate() {
		rep.ByName[s.Name] = s
	}

	var (
		rootSelf                   int64
		httpOverUS, httpOps        float64
		missOverUS, missOps        float64
		waitUS, waitOps            float64
		routeOverUS, routeOps      float64
		attempts, evalRows, oCalls float64
	)
	for _, root := range tr.Roots {
		rep.RootUS += root.Rec.DurUS
		rootSelf += root.SelfUS
		if root.Rec.Name != "op" {
			continue
		}
		// serve.http_overhead_us: client latency minus resolver latency on
		// the hop the client talks to.
		for _, h := range root.Children {
			if h.Rec.Name == "serve.http" {
				httpOverUS += float64(root.SelfUS + h.SelfUS)
				httpOps++
			}
		}
		// serve.miss_overhead_ms: a cold request's latency minus its Transfer.
		if xfer := find(root, "core.transfer"); xfer != nil {
			missOverUS += float64(root.Rec.DurUS - xfer.Rec.DurUS)
			missOps++
		}
	}
	walk(tr.Roots, func(n *analyze.Node) {
		switch n.Rec.Name {
		case "serve.resolve":
			// serve.batcher_wait_us: resolver latency minus the busy time of
			// the batch that answered it, on requests that found the adapter
			// resident.
			if find(n, "core.transfer") == nil && find(n, "serve.adapter") != nil {
				waitUS += float64(n.SelfUS)
				waitOps++
			}
		case "cluster.route":
			// cluster.route_overhead_us: Router.Predict latency minus the
			// attempt that won (the successful one that ended first).
			var win *analyze.Node
			for _, c := range n.Children {
				if c.Rec.Name != "cluster.attempt" {
					continue
				}
				attempts++
				if st, _ := c.Rec.Attrs["status"].(float64); st != 200 {
					continue
				}
				if win == nil || c.Rec.StartUS+c.Rec.DurUS < win.Rec.StartUS+win.Rec.DurUS {
					win = c
				}
			}
			if win != nil {
				routeOverUS += float64(n.Rec.DurUS - win.Rec.DurUS)
				routeOps++
			}
		case "akb.eval":
			rows, _ := n.Rec.Attrs["rows"].(float64)
			evalRows += rows
		case "oracle.call":
			oCalls++
		}
	})
	if rep.RootUS > 0 {
		rep.Coverage = 1 - float64(rootSelf)/float64(rep.RootUS)
	}
	transfers := float64(rep.ByName["core.transfer"].Count)
	rep.Derived["serve.http_overhead_us"] = ratio(httpOverUS, httpOps)
	rep.Derived["serve.miss_overhead_ms"] = ratio(missOverUS, missOps) / 1e3
	rep.Derived["serve.batcher_wait_us"] = ratio(waitUS, waitOps)
	rep.Derived["cluster.route_overhead_us"] = ratio(routeOverUS, routeOps)
	rep.Derived["cluster.attempts_per_op"] = ratio(attempts, float64(rep.ByName["cluster.route"].Count))
	rep.Derived["akb.eval_rows"] = ratio(evalRows, transfers)
	rep.Derived["oracle.calls"] = ratio(oCalls, transfers)
	return rep, nil
}

// meanMS is the mean duration of the spans called name, in milliseconds.
func (r *traceReport) meanMS(name string) float64 {
	s := r.ByName[name]
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalUS) / float64(s.Count) / 1e3
}

// perTransferMS is the time spent in spans called name per Transfer.
func (r *traceReport) perTransferMS(name string) float64 {
	n := r.ByName["core.transfer"].Count
	if n == 0 {
		return 0
	}
	return float64(r.ByName[name].TotalUS) / float64(n) / 1e3
}

func walk(nodes []*analyze.Node, f func(*analyze.Node)) {
	for _, n := range nodes {
		f(n)
		walk(n.Children, f)
	}
}

// find returns the first descendant of n called name.
func find(n *analyze.Node, name string) *analyze.Node {
	for _, c := range n.Children {
		if c.Rec.Name == name {
			return c
		}
		if d := find(c, name); d != nil {
			return d
		}
	}
	return nil
}

// flush writes the buffered spans to out/trace-<workload>.jsonl.
func (t *tracing) flush(outDir, workload string) (string, error) {
	if err := t.t.Close(); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".jsonl")
	return path, os.WriteFile(path, t.buf.Bytes(), 0o644)
}
