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
//     akb.FallibleOracle — internal/faults' chaos injector today — with
//     immediate retries of transient failures and a Breaker so a dead
//     oracle does not burn the retry budget on every round.
//
// The oracle client holds no clock and no randomness, so seeded chaos runs
// reproduce exactly and run at full speed. All oracle failures surface as
// errors to akb.SearchFallible, which degrades gracefully instead of
// aborting the search.
package resilience

import (
	"context"
	"errors"
	"fmt"

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

// Fixed policy: no caller outside a test ever chose either, so neither is
// an option. A per-search call and token budget, backoff between retries
// and a per-attempt deadline lived here too; no product run armed any of
// them, and they return with the first real remote oracle (DESIGN.md
// "Resilience & chaos testing").
const (
	maxAttempts    = 3 // tries per logical call, the first included
	oracleCooldown = 3 // BreakerConfig.Cooldown of the oracle's breaker
)

// ResilientOracle implements akb.FallibleOracle over an inner oracle with
// retries and a breaker. Safe for concurrent use; the intended deployment
// is one client per AKB search so breaker state is per-search.
type ResilientOracle struct {
	inner akb.FallibleOracle
	rec   *obs.Recorder
	br    *Breaker
}

// New returns a resilient client around inner. rec, when non-nil, records
// the resilience.* series and one akb.oracle_call span per call (DESIGN.md
// "Telemetry catalogue").
func New(inner akb.FallibleOracle, rec *obs.Recorder) *ResilientOracle {
	r := &ResilientOracle{inner: inner, rec: rec}
	r.br = NewBreaker(BreakerConfig{
		Cooldown: oracleCooldown,
		OnState: func(s State) {
			rec.SetGauge("resilience.breaker_state", float64(s))
			rec.Event("resilience.breaker", "state", s.String())
		},
		OnTrip: func() {
			rec.Count("resilience.breaker_trips", 1)
		},
	})
	rec.SetGauge("resilience.breaker_state", float64(StateClosed))
	return r
}

var _ akb.FallibleOracle = (*ResilientOracle)(nil)

// Generate implements akb.FallibleOracle.
func (r *ResilientOracle) Generate(ctx context.Context, req akb.GenerateRequest) ([]*tasks.Knowledge, error) {
	return do(r, "generate", func() ([]*tasks.Knowledge, error) { return r.inner.Generate(ctx, req) })
}

// Feedback implements akb.FallibleOracle.
func (r *ResilientOracle) Feedback(ctx context.Context, req akb.FeedbackRequest) (string, error) {
	return do(r, "feedback", func() (string, error) { return r.inner.Feedback(ctx, req) })
}

// Refine implements akb.FallibleOracle.
func (r *ResilientOracle) Refine(ctx context.Context, req akb.RefineRequest) ([]*tasks.Knowledge, error) {
	return do(r, "refine", func() ([]*tasks.Knowledge, error) { return r.inner.Refine(ctx, req) })
}

// do runs one logical oracle call through the breaker and the retry loop.
// A failed call returns the zero T.
func do[T any](r *ResilientOracle, op string, call func() (T, error)) (T, error) {
	var zero T
	rec, span := r.rec.StartSpan("akb.oracle_call")
	defer span.End()
	span.SetAttr("op", op)
	attempt := 0 // tries made, whatever the outcome
	defer func() { span.SetAttr("attempts", attempt) }()

	var lastErr error
	for attempt < maxAttempts {
		if err := r.br.Allow(); err != nil {
			span.SetAttr("err", err.Error())
			if lastErr != nil {
				return zero, fmt.Errorf("%w (after %v)", err, lastErr)
			}
			return zero, err
		}
		if attempt > 0 {
			rec.Count("resilience.retries", 1)
		}
		attempt++
		v, err := call()
		if err == nil {
			r.br.Success()
			return v, nil
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
	return zero, fmt.Errorf("resilience: %s gave up: %w", op, lastErr)
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
