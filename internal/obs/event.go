package obs

import (
	"log/slog"
	"time"
)

// Structured events ride in the same JSONL stream as spans: one SpanRecord
// with Kind == KindEvent, a zero duration, and the enclosing span as
// parent. Attribute normalization is delegated to log/slog — Event accepts
// the same alternating key/value (or slog.Attr) argument forms as
// slog.Logger.

// EventIn writes one structured event under a parent span context (the zero
// context for a top-level event), stamping the parent's trace id on the
// record so trace-id filtering picks the event up alongside its span. args
// are slog-style attributes: alternating key/value pairs, slog.Attr values,
// or slog groups.
func (t *Tracer) EventIn(parent SpanContext, name string, args ...any) {
	if t == nil {
		return
	}
	rec := slog.NewRecord(time.Now(), slog.LevelInfo, name, 0)
	rec.Add(args...)
	t.writeEvent(parent, rec)
}

func (t *Tracer) writeEvent(parent SpanContext, rec slog.Record) {
	out := SpanRecord{
		Span:    t.nextID.Add(1),
		Parent:  parent.Span,
		Trace:   parent.Trace.String(),
		Kind:    KindEvent,
		Name:    rec.Message,
		StartUS: rec.Time.Sub(t.epoch).Microseconds(),
	}
	if rec.NumAttrs() > 0 {
		out.Attrs = make(map[string]any, rec.NumAttrs())
		rec.Attrs(func(a slog.Attr) bool {
			flattenAttr(out.Attrs, "", a)
			return true
		})
	}
	t.write(&out)
}

// flattenAttr resolves one slog attribute into the flat Attrs map, joining
// group members with "." so events stay one JSON object deep.
func flattenAttr(dst map[string]any, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	key := a.Key
	if prefix != "" {
		key = prefix + "." + key
	}
	if v.Kind() == slog.KindGroup {
		for _, ga := range v.Group() {
			flattenAttr(dst, key, ga)
		}
		return
	}
	if key == "" {
		return
	}
	dst[key] = v.Any()
}
