package analyze

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// serveLikeTrace writes the shape the serving layer produces: two
// remote-parented request spans in their own traces, one batch span in a
// third trace linking both, with a model-call child, plus an event inside
// one request.
func serveLikeTrace(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	tr.SeedTraceIDs(11)
	ids := obs.NewIDSource(99)

	reqA := tr.StartSpanIn("serve.request", obs.SpanContext{Trace: ids.At(1), Span: 1<<40 + 1})
	reqB := tr.StartSpanIn("serve.request", obs.SpanContext{Trace: ids.At(2), Span: 1<<40 + 2})
	tr.EventIn(reqA.Context(), "serve.enqueue", "key", "em/abt")

	batch := tr.StartSpan("serve.batch")
	batch.Link(reqA.Context())
	batch.Link(reqB.Context())
	batch.SetAttr("size", 2)
	pred := batch.StartChild("serve.predict")
	pred.End()
	batch.End()
	reqA.End()
	reqB.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	trace, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestRemoteParentsAreCleanRoots(t *testing.T) {
	tr := serveLikeTrace(t)
	// Two requests + one batch (predict nests under batch) = 3 roots, and
	// none of them are orphans: the request parents are remote by design.
	if len(tr.Roots) != 3 || tr.Orphans != 0 {
		t.Fatalf("roots = %d orphans = %d, want 3 and 0", len(tr.Roots), tr.Orphans)
	}
	for _, r := range tr.Roots {
		if r.Rec.Name == "serve.batch" && len(r.Children) != 1 {
			t.Fatalf("batch children = %d, want the predict span", len(r.Children))
		}
	}
}

// TestBuildDoesNotAttachAcrossTraces pins the span-id collision hazard: a
// remote parent id that happens to equal a local span id must not graft the
// request under an unrelated span.
func TestBuildDoesNotAttachAcrossTraces(t *testing.T) {
	recs := []obs.SpanRecord{
		{Span: 7, Name: "local.root", Trace: "aaaa", DurUS: 10},
		{Span: 8, Parent: 7, Name: "serve.request", Trace: "bbbb", Remote: true, DurUS: 5},
	}
	tr := build(recs)
	if len(tr.Roots) != 2 || tr.Orphans != 0 {
		t.Fatalf("roots = %d orphans = %d, want 2 clean roots", len(tr.Roots), tr.Orphans)
	}
	if len(tr.Roots[0].Children)+len(tr.Roots[1].Children) != 0 {
		t.Fatal("cross-trace parent id was attached")
	}
}

func TestFilterTraceReassemblesPath(t *testing.T) {
	tr := serveLikeTrace(t)
	var reqTrace string
	for _, r := range tr.Roots {
		if r.Rec.Name == "serve.request" {
			reqTrace = r.Rec.Trace
			break
		}
	}
	if reqTrace == "" {
		t.Fatal("no serve.request root found")
	}
	// The event was parented to reqA; pick that trace specifically.
	for _, e := range tr.Events {
		reqTrace = e.Trace
	}

	p := tr.FilterTrace(reqTrace)
	if p.Empty() {
		t.Fatal("filter matched nothing")
	}
	if p.Spans != 1 || p.Events != 1 {
		t.Fatalf("spans = %d events = %d, want 1 and 1", p.Spans, p.Events)
	}
	// The batch and its predict child ride in via the link.
	if p.LinkedSpans != 2 || len(p.Linked) != 1 || p.Linked[0].Rec.Name != "serve.batch" {
		t.Fatalf("linked = %d (%d roots), want the batch subtree", p.LinkedSpans, len(p.Linked))
	}

	var out bytes.Buffer
	if err := p.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"serve.request", "serve.batch", "serve.predict", "serve.enqueue", "shared work"} {
		if !strings.Contains(text, want) {
			t.Errorf("path text missing %q:\n%s", want, text)
		}
	}

	if !tr.FilterTrace("feedfacefeedfacefeedfacefeedface").Empty() {
		t.Error("unknown trace id should filter to empty")
	}
}

func TestBuildTopRollingStats(t *testing.T) {
	le := []float64{10, 100, 1000}
	prev := obs.RegistrySnapshot{
		Histograms: map[string]obs.HistogramSnapshot{
			ServeLatencyMetric: {Count: 4, Le: le, Bkt: []int64{2, 2, 0, 0}},
		},
	}
	cur := obs.RegistrySnapshot{
		Gauges: map[string]float64{
			ServeInflightMetric:      3,
			ServeQueuePrefix + "em":  5,
			ServeQueuePrefix + "dcr": 1,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			ServeLatencyMetric: {
				Count: 8, Le: le, Bkt: []int64{2, 2, 4, 0},
				Exemplars: []string{"", "old-trace", "slow-trace", ""},
			},
		},
	}
	s := BuildTop(prev, cur)
	if s.Inflight != 3 || s.Requests != 8 || s.Delta != 4 {
		t.Fatalf("stats = %+v", s)
	}
	// All 4 interval observations landed in (100, 1000]: quantiles must sit
	// inside that bucket, not the lifetime distribution.
	if s.P50US <= 100 || s.P50US > 1000 || s.P95US <= s.P50US {
		t.Fatalf("rolling quantiles p50=%g p95=%g not in the interval bucket", s.P50US, s.P95US)
	}
	if s.SlowTrace != "slow-trace" {
		t.Fatalf("slow trace = %q", s.SlowTrace)
	}
	if len(s.QueueDepth) != 2 || s.QueueDepth[0].Key != "em" || s.QueueDepth[0].Depth != 5 {
		t.Fatalf("queue depth = %+v", s.QueueDepth)
	}

	// First poll: zero prev, quantiles over the lifetime.
	s0 := BuildTop(obs.RegistrySnapshot{}, cur)
	if s0.Delta != 8 || s0.Requests != 8 {
		t.Fatalf("first poll = %+v", s0)
	}
	var out bytes.Buffer
	if err := s.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "inflight 3") || !strings.Contains(out.String(), "slow-trace") {
		t.Fatalf("top text = %q", out.String())
	}
}
