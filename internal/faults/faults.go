// Package faults is the deterministic chaos-injection layer of the oracle
// path: it wraps any infallible akb.Oracle in the error-returning
// akb.FallibleOracle interface and injects a seeded, reproducible schedule
// of the failure modes a remote closed-source-LLM API exhibits under load —
// slow responses, timeouts, rate limits, transient server errors, and
// empty, truncated, or malformed knowledge candidates.
//
// Determinism is the point: the injector draws every fault decision from
// its own rand.Rand, never from the wrapped oracle's, so (a) the same seed
// produces the same fault schedule call-for-call, so two chaos runs
// compare byte for byte, and (b) at Rate 0 the wrapped oracle
// sees exactly the call sequence it would have seen unwrapped, byte-
// identical results included. The injector keeps no record of what it
// injected: each fault is one faults.inject event (call, op, kind) on the
// trace and one tick of the faults.injected counter.
package faults

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/akb"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// Kind names one injectable failure mode.
type Kind string

const (
	// KindLatency is a slow response that arrives intact. The delay is not
	// simulated: the call succeeds unchanged, and only the injection is
	// counted, so seeded chaos runs stay wall-clock fast.
	KindLatency Kind = "latency"
	// KindTimeout fails the call as a deadline expiry (the error unwraps to
	// context.DeadlineExceeded). Transient: a retry may succeed.
	KindTimeout Kind = "timeout"
	// KindRateLimit fails the call like an HTTP 429. Transient.
	KindRateLimit Kind = "rate-limit"
	// KindServerError fails the call like an HTTP 5xx. Transient.
	KindServerError Kind = "server-error"
	// KindEmpty returns a well-formed but empty response: no candidates
	// from Generate/Refine, an empty string from Feedback. Not an error —
	// this is the "the model returned nothing usable" mode.
	KindEmpty Kind = "empty"
	// KindTruncated returns a response cut off mid-stream: knowledge text
	// sliced, rules dropped, serialization directives lost.
	KindTruncated Kind = "truncated"
	// KindMalformed corrupts the response: NaN rule weights, runaway text —
	// the shapes akb.SanitizeCandidates must catch before Evaluate.
	KindMalformed Kind = "malformed"
)

// AllKinds lists every injectable fault kind, in spec order.
var AllKinds = []Kind{
	KindLatency, KindTimeout, KindRateLimit, KindServerError,
	KindEmpty, KindTruncated, KindMalformed,
}

// Error is an injected call failure.
type Error struct {
	Kind Kind
	Call int // 1-based index of the oracle call that faulted
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s (oracle call %d)", e.Kind, e.Call)
}

// Temporary reports whether a retry of the failed call may succeed — true
// for the transport-level faults a resilient client should retry.
func (e *Error) Temporary() bool {
	switch e.Kind {
	case KindTimeout, KindRateLimit, KindServerError:
		return true
	}
	return false
}

// Unwrap lets errors.Is(err, context.DeadlineExceeded) hold for injected
// timeouts, matching how a real client surfaces an expired deadline.
func (e *Error) Unwrap() error {
	if e.Kind == KindTimeout {
		return context.DeadlineExceeded
	}
	return nil
}

// Config parameterizes an Injector.
type Config struct {
	// Rate is the probability in [0, 1] that any single oracle call faults.
	Rate float64
	// Seed drives the fault schedule; same seed, same schedule.
	Seed int64
	// Kinds restricts injection to a subset of fault kinds (nil = AllKinds).
	Kinds []Kind
	// Rec, when non-nil, counts injections (faults.injected) and emits one
	// faults.inject event per fault, which carries the kind.
	Rec *obs.Recorder
}

// Injector wraps an akb.Oracle and implements akb.FallibleOracle with
// fault injection. Safe for concurrent use (a single lock orders the
// schedule), though the intended deployment is one injector per AKB search
// so schedules stay independent of worker interleaving.
type Injector struct {
	inner akb.Oracle
	cfg   Config
	kinds []Kind

	mu    sync.Mutex
	rng   *rand.Rand
	calls int
}

// Wrap returns an injector around inner. It panics on a Rate outside
// [0, 1] — a misconfigured chaos harness should fail loudly, not inject a
// silently clamped rate.
func Wrap(inner akb.Oracle, cfg Config) *Injector {
	if !(cfg.Rate >= 0 && cfg.Rate <= 1) {
		panic(fmt.Sprintf("faults: rate %v outside [0,1]", cfg.Rate))
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds
	}
	return &Injector{
		inner: inner,
		cfg:   cfg,
		kinds: append([]Kind(nil), kinds...),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

var _ akb.FallibleOracle = (*Injector)(nil)

// draw advances the call counter and decides whether — and which — fault
// this call suffers. The two rng draws happen on every call (even below
// the rate threshold only the first is consumed), keeping the schedule a
// pure function of (seed, call index, rate).
func (f *Injector) draw(op string) (Kind, int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.cfg.Rate == 0 || f.rng.Float64() >= f.cfg.Rate {
		return "", f.calls, false
	}
	kind := f.kinds[f.rng.Intn(len(f.kinds))]
	f.cfg.Rec.Count("faults.injected", 1)
	f.cfg.Rec.Event("faults.inject", "call", f.calls, "op", op, "kind", string(kind))
	return kind, f.calls, true
}

// inject runs one oracle call through the fault schedule: one draw, then
// either an injected error — for the transient kinds, without calling the
// wrapped oracle — or the wrapped call, whose response corrupt rewrites for
// the kind (KindLatency leaves it as it is). A corrupted response still
// costs the wrapped oracle its call (and its rng): only the response is
// lost.
func inject[T any](ctx context.Context, f *Injector, op string, call func() T, corrupt func(Kind, T) T) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	kind, n, faulted := f.draw(op)
	if !faulted {
		return call(), nil
	}
	if err := (&Error{Kind: kind, Call: n}); err.Temporary() {
		return zero, err
	}
	return corrupt(kind, call()), nil
}

// Generate implements akb.FallibleOracle.
func (f *Injector) Generate(ctx context.Context, req akb.GenerateRequest) ([]*tasks.Knowledge, error) {
	return inject(ctx, f, "generate", func() []*tasks.Knowledge { return f.inner.Generate(req) }, corruptKnowledge)
}

// Feedback implements akb.FallibleOracle.
func (f *Injector) Feedback(ctx context.Context, req akb.FeedbackRequest) (string, error) {
	return inject(ctx, f, "feedback", func() string { return f.inner.Feedback(req) }, corruptFeedback)
}

// Refine implements akb.FallibleOracle.
func (f *Injector) Refine(ctx context.Context, req akb.RefineRequest) ([]*tasks.Knowledge, error) {
	return inject(ctx, f, "refine", func() []*tasks.Knowledge { return f.inner.Refine(req) }, corruptKnowledge)
}

// corruptKnowledge rewrites a Generate or Refine response for kind.
func corruptKnowledge(kind Kind, ks []*tasks.Knowledge) []*tasks.Knowledge {
	switch kind {
	case KindEmpty:
		return nil
	case KindTruncated:
		return truncateAll(ks)
	case KindMalformed:
		return malformAll(ks)
	}
	return ks
}

// corruptFeedback rewrites a Feedback response for kind.
func corruptFeedback(kind Kind, fb string) string {
	switch kind {
	case KindEmpty:
		return ""
	case KindTruncated:
		return fb[:len(fb)/3]
	case KindMalformed:
		return strings.Repeat("\x00\xff", 64)
	}
	return fb
}

// truncateAll simulates a response cut off mid-stream: knowledge text is
// sliced to a third, the tail half of the rules is lost, serialization
// directives are dropped entirely. Corruption happens on clones — the
// wrapped oracle's own objects are never mutated.
func truncateAll(ks []*tasks.Knowledge) []*tasks.Knowledge {
	out := make([]*tasks.Knowledge, 0, len(ks))
	for _, k := range ks {
		if k == nil {
			out = append(out, nil)
			continue
		}
		c := k.Clone()
		c.Text = c.Text[:len(c.Text)/3]
		c.Rules = c.Rules[:len(c.Rules)/2]
		c.Serial = nil
		out = append(out, c)
	}
	return out
}

// malformAll corrupts candidates the way a garbled API response would:
// non-finite and negative rule weights plus runaway text — exactly the
// malformations akb.SanitizeCandidates exists to catch.
func malformAll(ks []*tasks.Knowledge) []*tasks.Knowledge {
	out := make([]*tasks.Knowledge, 0, len(ks))
	for _, k := range ks {
		if k == nil {
			out = append(out, nil)
			continue
		}
		c := k.Clone()
		if len(c.Rules) > 0 {
			c.Rules[0].Weight = math.NaN()
		}
		if len(c.Rules) > 1 {
			c.Rules[1].Weight = -3
		}
		c.Text = c.Text + strings.Repeat("#", akb.MaxKnowledgeText)
		out = append(out, c)
	}
	return out
}
