package obs

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"
)

func TestTracerEvent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	rec := NewRecorder(NewRegistry(), tr)

	r2, sp := rec.StartSpan("akb.iteration")
	r2.Event("akb.candidate", "score", 91.5, "accepted", true, slog.Int("iter", 2))
	sp.End()

	recs, _, err := ReadJSONL[SpanRecord](strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want event + span", len(recs))
	}
	ev := recs[0] // events flush immediately, before the span's end record
	if !ev.IsEvent() || ev.Kind != KindEvent {
		t.Fatalf("first record is not an event: %+v", ev)
	}
	if ev.Name != "akb.candidate" || ev.Parent != recs[1].Span {
		t.Errorf("event name/parent = %q/%d, span id %d", ev.Name, ev.Parent, recs[1].Span)
	}
	if ev.DurUS != 0 {
		t.Errorf("event has duration %d", ev.DurUS)
	}
	if ev.Attrs["score"] != 91.5 || ev.Attrs["accepted"] != true || ev.Attrs["iter"] != float64(2) {
		t.Errorf("event attrs = %v", ev.Attrs)
	}
	if recs[1].IsEvent() {
		t.Error("span record misflagged as event")
	}
}

func TestEventNilSafety(t *testing.T) {
	var rec *Recorder
	rec.Event("ghost", "k", 1) // must not panic
	var tr *Tracer
	tr.EventIn(SpanContext{}, "ghost")
	metricsOnly := NewRecorder(NewRegistry(), nil)
	metricsOnly.Event("ghost", "k", 1)
}

func TestEventGroupFlattening(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.EventIn(SpanContext{}, "e", slog.Group("g", slog.Int("x", 1), slog.Group("h", slog.Int("y", 2))))
	recs, _, err := ReadJSONL[SpanRecord](strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	attrs := recs[0].Attrs
	if attrs["g.x"] != float64(1) || attrs["g.h.y"] != float64(2) {
		t.Errorf("flattened attrs = %v", attrs)
	}
}

// errCloser fails on Close, to exercise error propagation.
type errCloser struct {
	bytes.Buffer
	err error
}

func (e *errCloser) Close() error { return e.err }

func TestTracerClose(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.StartSpan("a").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	// Writes after Close are dropped, not errors.
	tr.StartSpan("late").End()
	tr.EventIn(SpanContext{}, "late-event")
	if buf.Len() != n {
		t.Error("write after Close reached the buffer")
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}

	// Close closes an underlying io.Closer and surfaces its error once.
	ec := &errCloser{err: errors.New("disk full")}
	tr2 := NewTracer(ec)
	tr2.StartSpan("b").End()
	if err := tr2.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close error = %v", err)
	}

	// Nil tracer Close is a no-op.
	var nilTr *Tracer
	if err := nilTr.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

func TestDefaultBoundsAliases(t *testing.T) {
	if len(DefaultLatencyBounds) == 0 || len(DefaultScoreBounds) == 0 {
		t.Fatal("default bounds empty")
	}
	// Registry nil-bounds fallback uses the latency defaults.
	reg := NewRegistry()
	h := reg.Histogram("h", nil)
	h.Observe(3)
	snap := h.Snapshot()
	if len(snap.Le) != len(DefaultLatencyBounds) {
		t.Errorf("nil-bounds histogram has %d bounds, want %d", len(snap.Le), len(DefaultLatencyBounds))
	}
}
