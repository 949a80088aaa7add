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
//     between retries of transient failures, and a Breaker so a dead oracle
//     does not burn the retry budget on every round.
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

// ErrBreakerOpen is terminal (never retried): an open breaker says "stop
// calling", not "try again".
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// Fixed policy: no caller outside a test ever chose any of these, so none
// is an option. A per-search call and token budget lived here too; nothing
// armed it, and it returns with the first real remote oracle (DESIGN.md
// "Resilience & chaos testing").
const (
	maxAttempts        = 3                     // tries per logical call, the first included
	baseDelay          = 50 * time.Millisecond // floor of every backoff delay (see nextDelay)
	maxDelay           = 2 * time.Second       // cap of every backoff delay
	defaultCallTimeout = 10 * time.Second      // Policy.CallTimeout when zero
	oracleCooldown     = 3                     // BreakerConfig.Cooldown of the oracle's breaker
)

// Policy parameterizes a ResilientOracle.
type Policy struct {
	// CallTimeout is the context deadline applied to each attempt
	// (zero: 10s; <0 disables).
	CallTimeout time.Duration
	// Seed drives the jitter; same seed, same backoff schedule.
	Seed int64
	// Sleep, when non-nil, replaces time.Sleep for backoff waits. Chaos
	// harnesses pass a no-op so seeded grids run at full speed.
	Sleep func(time.Duration)
	// Rec, when non-nil, records the resilience.* series and one
	// akb.oracle_call span per call, one akb.oracle_retry span per backoff
	// (DESIGN.md "Telemetry catalogue").
	Rec *obs.Recorder
}

// ResilientOracle implements akb.FallibleOracle over an inner oracle with
// retries and a breaker. Safe for concurrent use; the intended deployment
// is one client per AKB search so breaker state is per-search.
type ResilientOracle struct {
	inner akb.FallibleOracle
	p     Policy
	br    *Breaker

	mu        sync.Mutex
	rng       *rand.Rand
	prevDelay time.Duration
}

// New returns a resilient client around inner with the given policy.
func New(inner akb.FallibleOracle, p Policy) *ResilientOracle {
	if p.CallTimeout == 0 {
		p.CallTimeout = defaultCallTimeout
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	r := &ResilientOracle{inner: inner, p: p, rng: rand.New(rand.NewSource(p.Seed))}
	r.br = NewBreaker(BreakerConfig{
		Cooldown: oracleCooldown,
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

// do runs one logical oracle call through the breaker and the retry loop.
func (r *ResilientOracle) do(ctx context.Context, op string, call func(context.Context) error) error {
	rec, span := r.p.Rec.StartSpan("akb.oracle_call")
	defer span.End()
	span.SetAttr("op", op)

	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := r.br.Allow(); err != nil {
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
		err := call(cctx)
		cancel()
		if err == nil {
			r.br.Success()
			span.SetAttr("attempts", attempt+1)
			return nil
		}
		lastErr = err
		r.br.Failure()
		rec.Count("resilience.failures", 1)
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

// nextDelay draws the decorrelated-jitter backoff: uniform in
// [baseDelay, 3×previous], capped at maxDelay.
func (r *ResilientOracle) nextDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	hi := max(3*r.prevDelay, baseDelay)
	d := min(baseDelay+time.Duration(r.rng.Int63n(int64(hi-baseDelay)+1)), maxDelay)
	r.prevDelay = d
	return d
}

// temporary matches the convention of net.Error and internal/faults.Error.
type temporary interface{ Temporary() bool }

// transient reports whether a failed attempt is worth retrying. Errors
// that say so themselves (Temporary) are believed; cancellation and the
// client's own terminal sentinel are not retried. Everything else is —
// deadline expiries included: for a remote dependency a blip is the common
// case and the attempt cap bounds the damage.
func transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrBreakerOpen) {
		return false
	}
	var t temporary
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return true
}
