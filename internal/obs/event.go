package obs

import "time"

// Structured events ride in the same JSONL stream as spans: one SpanRecord
// with Kind == KindEvent, a zero duration, and the enclosing span as
// parent.

// EventIn writes one structured event under a parent span context (the zero
// context for a top-level event), stamping the parent's trace id on the
// record so trace-id filtering picks the event up alongside its span. args
// are alternating string keys and values, stored as given, as Span.SetAttr
// stores one pair; a trailing key without a value is dropped.
func (t *Tracer) EventIn(parent SpanContext, name string, args ...any) {
	if t == nil {
		return
	}
	out := SpanRecord{
		Span:    t.nextID.Add(1),
		Parent:  parent.Span,
		Trace:   parent.Trace.String(),
		Kind:    KindEvent,
		Name:    name,
		StartUS: time.Since(t.epoch).Microseconds(),
	}
	if len(args) > 1 {
		out.Attrs = make(map[string]any, len(args)/2)
		for i := 0; i+1 < len(args); i += 2 {
			out.Attrs[args[i].(string)] = args[i+1]
		}
	}
	t.write(&out)
}
