package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this doubles as the data-race gate
// for the atomic implementations.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("c").Add(1)
				reg.Gauge("g").Set(float64(w))
				reg.Histogram("h", []float64{10, 100, 1000}).Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := reg.Histogram("h", nil)
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * float64(perWorker*(perWorker-1)) / 2
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, wantSum)
	}
	g := reg.Gauge("g").Value()
	if g < 0 || g >= workers {
		t.Errorf("gauge = %g, want a worker id in [0,%d)", g, workers)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(DefaultLatencyBounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	snap := h.Snapshot()
	if snap.Count != 1000 || snap.Min != 1 || snap.Max != 1000 {
		t.Fatalf("snapshot count/min/max = %d/%g/%g", snap.Count, snap.Min, snap.Max)
	}
	// Bucket interpolation is approximate; quantiles must land in the right
	// decade and be ordered.
	if snap.P50 < 300 || snap.P50 > 700 {
		t.Errorf("p50 = %g, want ~500", snap.P50)
	}
	if snap.P99 < 900 || snap.P99 > 1000 {
		t.Errorf("p99 = %g, want ~990", snap.P99)
	}
	if !(snap.P50 <= snap.P95 && snap.P95 <= snap.P99) {
		t.Errorf("quantiles unordered: p50=%g p95=%g p99=%g", snap.P50, snap.P95, snap.P99)
	}
	if snap.Mean < 499 || snap.Mean > 502 {
		t.Errorf("mean = %g, want 500.5", snap.Mean)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
	h.Observe(50) // overflow bucket
	if q := h.Quantile(0.99); q != 50 {
		t.Errorf("overflow quantile = %g, want 50", q)
	}
}

// TestSpanNesting builds a small tree and checks ids, parentage, and the
// end-order serialization contract (children flush before parents).
func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(NewRegistry(), NewTracer(&buf))

	rec1, root := rec.StartSpan("root")
	root.SetAttr("kind", "EM")
	rec2, stage := rec1.StartSpan("stage")
	_, leaf := rec2.StartSpan("leaf")
	leaf.SetAttr("i", 1)
	leaf.End()
	stage.End()
	root.End()

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root has parent %d", byName["root"].Parent)
	}
	if byName["stage"].Parent != byName["root"].Span {
		t.Errorf("stage parent = %d, want root id %d", byName["stage"].Parent, byName["root"].Span)
	}
	if byName["leaf"].Parent != byName["stage"].Span {
		t.Errorf("leaf parent = %d, want stage id %d", byName["leaf"].Parent, byName["stage"].Span)
	}
	// End order: leaf, stage, root.
	if recs[0].Name != "leaf" || recs[1].Name != "stage" || recs[2].Name != "root" {
		t.Errorf("record order = %q,%q,%q", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	if got := byName["root"].Attrs["kind"]; got != "EM" {
		t.Errorf("root attr kind = %v", got)
	}
	// Durations nest: the parent spans at least as long as each child.
	if byName["root"].DurUS < byName["stage"].DurUS || byName["stage"].DurUS < byName["leaf"].DurUS {
		t.Errorf("durations do not nest: root=%d stage=%d leaf=%d",
			byName["root"].DurUS, byName["stage"].DurUS, byName["leaf"].DurUS)
	}
}

// TestTraceRoundTrip serializes spans and asserts the parsed records carry
// every field through the JSONL encoding unchanged.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	s := tr.StartSpan("op")
	s.SetAttr("score", 87.5)
	s.SetAttr("dataset", "EM/Abt-Buy")
	s.End()

	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("got %d lines, want 1", n)
	}
	recs, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Name != "op" || r.Span == 0 || r.Parent != 0 {
		t.Errorf("record = %+v", r)
	}
	if r.Attrs["score"] != 87.5 || r.Attrs["dataset"] != "EM/Abt-Buy" {
		t.Errorf("attrs = %v", r.Attrs)
	}
	if r.DurUS < 0 || r.StartUS < 0 {
		t.Errorf("negative timing: start=%d dur=%d", r.StartUS, r.DurUS)
	}
}

func TestRegistryJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("akb.oracle_calls").Add(7)
	reg.Gauge("skc.lambda/EM/iTunes-Amazon").Set(0.21)
	reg.Histogram("model.train_step_us", nil).Observe(42)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"akb.oracle_calls": 7`, `"skc.lambda/EM/iTunes-Amazon": 0.21`, `"model.train_step_us"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q in:\n%s", want, out)
		}
	}
}

// TestNilRecorderZeroAlloc is the zero-cost-when-disabled contract: every
// instrumentation call the pipeline makes on the Predict/train hot paths
// must be allocation-free (and clock-read-free) through a nil recorder.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Count("model.predict", 1)
		rec.SetGauge("loss", 1.0)
		rec.Observe("score", 1.0, nil)
		start := rec.Now()
		rec.ObserveSince("step_us", start)
		r2, sp := rec.StartSpan("span")
		sp.SetAttr("k", 1)
		r2.Count("x", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates: %v allocs/op", allocs)
	}
	if !rec.Now().IsZero() {
		t.Fatal("nil recorder should not read the clock")
	}
}

// TestMetricsOnlyRecorder checks a recorder without a tracer still counts,
// and its spans are nil-safe.
func TestMetricsOnlyRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, nil)
	r2, sp := rec.StartSpan("ghost")
	if sp != nil {
		t.Fatal("expected nil span without a tracer")
	}
	r2.Count("c", 3)
	sp.End()
	if got := reg.Counter("c").Value(); got != 3 {
		t.Fatalf("counter through span-less recorder = %d, want 3", got)
	}
}
