// Package faults is the deterministic chaos-injection layer of the oracle
// path: it wraps any infallible akb.Oracle in the error-returning
// akb.FallibleOracle interface and injects a seeded, reproducible schedule
// of the failure modes a remote closed-source-LLM API exhibits under load —
// added latency, timeouts, rate limits, transient server errors, and
// empty, truncated, or malformed knowledge candidates.
//
// Determinism is the point: the injector draws every fault decision from
// its own rand.Rand, never from the wrapped oracle's, so (a) the same seed
// produces the same fault schedule call-for-call, so two chaos runs
// compare byte for byte, and (b) at Rate 0 the wrapped oracle
// sees exactly the call sequence it would have seen unwrapped, byte-
// identical results included. The schedule each injector actually executed
// is recorded and retrievable via Schedule for assertions and offline
// analysis.
package faults

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/akb"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// Kind names one injectable failure mode.
type Kind string

const (
	// KindLatency delays the call by Config.Latency, then lets it succeed.
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
	// Latency is the delay KindLatency injects (0 disables the sleep, which
	// keeps seeded chaos tests and experiment grids wall-clock fast while
	// still exercising the pass-through path).
	Latency time.Duration
	// Rec, when non-nil, counts injections (faults.injected) and emits one
	// faults.inject event per fault, which carries the kind.
	Rec *obs.Recorder
}

// Injected is one entry of an injector's executed fault schedule.
type Injected struct {
	Call int    // 1-based oracle call index
	Op   string // generate | feedback | refine
	Kind Kind
}

// Injector wraps an akb.Oracle and implements akb.FallibleOracle with
// fault injection. Safe for concurrent use (a single lock orders the
// schedule), though the intended deployment is one injector per AKB search
// so schedules stay independent of worker interleaving.
type Injector struct {
	inner akb.Oracle
	cfg   Config
	kinds []Kind

	mu       sync.Mutex
	rng      *rand.Rand
	calls    int
	schedule []Injected
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

// Schedule returns a copy of the executed fault schedule: one entry per
// injected fault, in call order. Two runs with the same seed and the same
// call sequence produce identical schedules.
func (f *Injector) Schedule() []Injected {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Injected(nil), f.schedule...)
}

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
	f.schedule = append(f.schedule, Injected{Call: f.calls, Op: op, Kind: kind})
	f.cfg.Rec.Count("faults.injected", 1)
	f.cfg.Rec.Event("faults.inject", "call", f.calls, "op", op, "kind", string(kind))
	return kind, f.calls, true
}

// fail maps an error-kind fault to its injected error; ok=false means the
// kind corrupts the response instead of failing the call.
func fail(kind Kind, call int) (error, bool) {
	switch kind {
	case KindTimeout, KindRateLimit, KindServerError:
		return &Error{Kind: kind, Call: call}, true
	}
	return nil, false
}

func (f *Injector) sleepLatency() {
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
}

// Generate implements akb.FallibleOracle.
func (f *Injector) Generate(ctx context.Context, req akb.GenerateRequest) ([]*tasks.Knowledge, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, call, faulted := f.draw("generate")
	if faulted {
		if err, ok := fail(kind, call); ok {
			return nil, err
		}
		switch kind {
		case KindLatency:
			f.sleepLatency()
		case KindEmpty:
			// The upstream model still consumed the call (and its rng);
			// only the response is lost.
			f.inner.Generate(req)
			return nil, nil
		case KindTruncated:
			return truncateAll(f.inner.Generate(req)), nil
		case KindMalformed:
			return f.malformAll(f.inner.Generate(req)), nil
		}
	}
	return f.inner.Generate(req), nil
}

// Feedback implements akb.FallibleOracle.
func (f *Injector) Feedback(ctx context.Context, req akb.FeedbackRequest) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	kind, call, faulted := f.draw("feedback")
	if faulted {
		if err, ok := fail(kind, call); ok {
			return "", err
		}
		switch kind {
		case KindLatency:
			f.sleepLatency()
		case KindEmpty:
			f.inner.Feedback(req)
			return "", nil
		case KindTruncated:
			fb := f.inner.Feedback(req)
			return fb[:len(fb)/3], nil
		case KindMalformed:
			f.inner.Feedback(req)
			return strings.Repeat("\x00\xff", 64), nil
		}
	}
	return f.inner.Feedback(req), nil
}

// Refine implements akb.FallibleOracle.
func (f *Injector) Refine(ctx context.Context, req akb.RefineRequest) ([]*tasks.Knowledge, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, call, faulted := f.draw("refine")
	if faulted {
		if err, ok := fail(kind, call); ok {
			return nil, err
		}
		switch kind {
		case KindLatency:
			f.sleepLatency()
		case KindEmpty:
			f.inner.Refine(req)
			return nil, nil
		case KindTruncated:
			return truncateAll(f.inner.Refine(req)), nil
		case KindMalformed:
			return f.malformAll(f.inner.Refine(req)), nil
		}
	}
	return f.inner.Refine(req), nil
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
func (f *Injector) malformAll(ks []*tasks.Knowledge) []*tasks.Knowledge {
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
