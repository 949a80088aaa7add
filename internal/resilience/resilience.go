// Package resilience holds the defenses a caller puts in front of an
// unreliable remote dependency, each written once:
//
//   - Breaker, a three-state circuit breaker (closed → open on consecutive
//     failures → half-open probe calls → closed again) so a dead backend
//     fails fast. It is one implementation with two callers: New builds
//     ResilientOracle's with NewBreaker, and cluster.Router builds one per
//     backend from the same type.
//   - Hedge, timer hedges and error failovers over a list of replicas
//     (cluster.Router's attempt loop).
//   - ResilientOracle, which hardens AKB's oracle path. It wraps any
//     akb.FallibleOracle — a remote-API client, or internal/faults' chaos
//     injector — with a context deadline per attempt (a hung call cannot
//     wedge a search), capped exponential backoff with decorrelated jitter
//     between retries of transient failures, a Breaker so a dead oracle
//     does not burn the retry budget on every round, and a per-client call
//     and token budget bounding what one AKB search may spend.
//
// Everything is deterministic given Policy.Seed and an injectable Sleep,
// which is how seeded chaos runs stay reproducible and wall-clock fast.
// All oracle failures surface as errors to akb.SearchFallible, which
// degrades gracefully instead of aborting the search.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/akb"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// State is the circuit breaker state. The numeric values are what the
// resilience.breaker_state gauge exports: 0 closed, 1 half-open, 2 open.
type State int32

const (
	StateClosed State = iota
	StateHalfOpen
	StateOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Sentinel errors. Both are terminal (never retried): an open breaker and
// an exhausted budget say "stop calling", not "try again".
var (
	ErrBreakerOpen     = errors.New("resilience: circuit breaker open")
	ErrBudgetExhausted = errors.New("resilience: oracle budget exhausted")
)

// TokenMeter is implemented by oracles that meter token usage (the
// simulated GPT does; internal/faults' injector forwards it). When the
// wrapped oracle implements it, Policy.MaxTokens is enforced.
type TokenMeter interface {
	TokenCount() (input, output int)
}

// Policy parameterizes a ResilientOracle. The zero value is usable: every
// unset field gets the default documented on it.
type Policy struct {
	// MaxAttempts bounds tries per logical call, first attempt included
	// (default 3).
	MaxAttempts int
	// BaseDelay seeds the backoff (default 50ms); MaxDelay caps it
	// (default 2s). Delays are decorrelated-jitter: each delay is drawn
	// uniformly from [BaseDelay, 3×previous], then capped.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// CallTimeout is the context deadline applied to each attempt
	// (default 10s; <0 disables).
	CallTimeout time.Duration
	// BreakerThreshold is the run of consecutive failures that trips the
	// breaker open (default 5; <0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how many short-circuited calls the open breaker
	// rejects before letting a half-open probe through (default 3). Cooling
	// down by call count instead of wall time keeps seeded runs
	// deterministic at any speed.
	BreakerCooldown int
	// HalfOpenProbes is the run of consecutive probe successes that closes
	// a half-open breaker (default 2). Any probe failure reopens it.
	HalfOpenProbes int
	// MaxCalls bounds oracle attempts (retries included) per client, i.e.
	// per AKB search in the intended one-client-per-search deployment
	// (default 0 = unlimited).
	MaxCalls int
	// MaxTokens bounds input+output tokens when the wrapped oracle meters
	// them (default 0 = unlimited).
	MaxTokens int
	// Seed drives the jitter; same seed, same backoff schedule.
	Seed int64
	// Sleep, when non-nil, replaces time.Sleep for backoff waits. Chaos
	// harnesses pass a no-op so seeded grids run at full speed.
	Sleep func(time.Duration)
	// Rec, when non-nil, records retry/failure/breaker counters, the
	// resilience.breaker_state gauge, per-attempt latency, and one
	// akb.oracle_retry span per backoff.
	Rec *obs.Recorder
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.CallTimeout == 0 {
		p.CallTimeout = 10 * time.Second
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 3
	}
	if p.HalfOpenProbes <= 0 {
		p.HalfOpenProbes = 2
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// ResilientOracle implements akb.FallibleOracle over an inner oracle with
// retries, breaker, and budgets. Safe for concurrent use; the intended
// deployment is one client per AKB search so budgets and breaker state are
// per-search.
type ResilientOracle struct {
	inner akb.FallibleOracle
	p     Policy
	br    *Breaker

	mu        sync.Mutex
	rng       *rand.Rand
	calls     int
	prevDelay time.Duration
}

// New returns a resilient client around inner with the given policy.
func New(inner akb.FallibleOracle, p Policy) *ResilientOracle {
	p = p.withDefaults()
	r := &ResilientOracle{inner: inner, p: p, rng: rand.New(rand.NewSource(p.Seed))}
	r.br = NewBreaker(BreakerConfig{
		Threshold: p.BreakerThreshold,
		Cooldown:  p.BreakerCooldown,
		Probes:    p.HalfOpenProbes,
		OnState: func(s State) {
			p.Rec.SetGauge("resilience.breaker_state", float64(s))
			p.Rec.Event("resilience.breaker", "state", s.String())
		},
		OnTrip: func() {
			p.Rec.Count("resilience.breaker_trips", 1)
		},
	})
	p.Rec.SetGauge("resilience.breaker_state", float64(StateClosed))
	return r
}

var _ akb.FallibleOracle = (*ResilientOracle)(nil)

// State returns the breaker's current state.
func (r *ResilientOracle) State() State {
	return r.br.State()
}

// Generate implements akb.FallibleOracle.
func (r *ResilientOracle) Generate(ctx context.Context, req akb.GenerateRequest) ([]*tasks.Knowledge, error) {
	var out []*tasks.Knowledge
	err := r.do(ctx, "generate", func(cctx context.Context) error {
		ks, err := r.inner.Generate(cctx, req)
		out = ks
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Feedback implements akb.FallibleOracle.
func (r *ResilientOracle) Feedback(ctx context.Context, req akb.FeedbackRequest) (string, error) {
	var out string
	err := r.do(ctx, "feedback", func(cctx context.Context) error {
		fb, err := r.inner.Feedback(cctx, req)
		out = fb
		return err
	})
	if err != nil {
		return "", err
	}
	return out, nil
}

// Refine implements akb.FallibleOracle.
func (r *ResilientOracle) Refine(ctx context.Context, req akb.RefineRequest) ([]*tasks.Knowledge, error) {
	var out []*tasks.Knowledge
	err := r.do(ctx, "refine", func(cctx context.Context) error {
		ks, err := r.inner.Refine(cctx, req)
		out = ks
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// do runs one logical oracle call through admission control, the retry
// loop, and state accounting.
func (r *ResilientOracle) do(ctx context.Context, op string, call func(context.Context) error) error {
	rec, span := r.p.Rec.StartSpan("akb.oracle_call")
	defer span.End()
	span.SetAttr("op", op)

	var lastErr error
	for attempt := 0; attempt < r.p.MaxAttempts; attempt++ {
		if err := r.admit(rec); err != nil {
			span.SetAttr("err", err.Error())
			if lastErr != nil {
				return fmt.Errorf("%w (after %v)", err, lastErr)
			}
			return err
		}
		if attempt > 0 {
			rec.Count("resilience.retries", 1)
			_, rspan := rec.StartSpan("akb.oracle_retry")
			rspan.SetAttr("op", op)
			rspan.SetAttr("attempt", attempt)
			d := r.nextDelay()
			rspan.SetAttr("backoff_us", d.Microseconds())
			r.p.Sleep(d)
			rspan.End()
		}
		cctx, cancel := r.attemptCtx(ctx)
		start := rec.Now()
		err := call(cctx)
		cancel()
		rec.ObserveSince("resilience.attempt_us", start)
		if err == nil {
			r.br.Success()
			span.SetAttr("attempts", attempt+1)
			return nil
		}
		lastErr = err
		r.br.Failure()
		rec.Count("resilience.failures", 1)
		rec.Event("resilience.error", "op", op, "attempt", attempt, "err", err.Error())
		if !transient(err) {
			break
		}
	}
	rec.Count("resilience.exhausted", 1)
	span.SetAttr("err", lastErr.Error())
	return fmt.Errorf("resilience: %s gave up: %w", op, lastErr)
}

func (r *ResilientOracle) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.p.CallTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.p.CallTimeout)
}

// admit gates one attempt on the budgets and the breaker, and counts it.
func (r *ResilientOracle) admit(rec *obs.Recorder) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.p.MaxCalls > 0 && r.calls >= r.p.MaxCalls {
		rec.Count("resilience.budget_rejected", 1)
		return fmt.Errorf("%w: %d calls", ErrBudgetExhausted, r.calls)
	}
	if r.p.MaxTokens > 0 {
		if m, ok := r.inner.(TokenMeter); ok {
			in, out := m.TokenCount()
			if in+out >= r.p.MaxTokens {
				rec.Count("resilience.budget_rejected", 1)
				return fmt.Errorf("%w: %d tokens", ErrBudgetExhausted, in+out)
			}
		}
	}
	if err := r.br.Allow(); err != nil {
		rec.Count("resilience.breaker_rejected", 1)
		return err
	}
	r.calls++
	return nil
}

// nextDelay draws the decorrelated-jitter backoff: uniform in
// [BaseDelay, 3×previous], capped at MaxDelay.
func (r *ResilientOracle) nextDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := r.p.BaseDelay
	hi := 3 * r.prevDelay
	if hi < lo {
		hi = lo
	}
	d := lo + time.Duration(r.rng.Int63n(int64(hi-lo)+1))
	if d > r.p.MaxDelay {
		d = r.p.MaxDelay
	}
	r.prevDelay = d
	return d
}

// temporary matches the convention of net.Error and internal/faults.Error.
type temporary interface{ Temporary() bool }

// transient reports whether a failed attempt is worth retrying. Errors
// that say so themselves (Temporary) are believed; cancellation and the
// client's own terminal sentinels are not retried. Everything else is —
// deadline expiries included: for a remote dependency a blip is the common
// case and the attempt cap bounds the damage.
func transient(err error) bool {
	if errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrBreakerOpen) ||
		errors.Is(err, ErrBudgetExhausted) {
		return false
	}
	var t temporary
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return true
}
