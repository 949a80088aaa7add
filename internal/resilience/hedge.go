package resilience

import (
	"context"
	"errors"
	"time"
)

// TerminalError marks an attempt error that must not be hedged or failed
// over: the request itself is bad (unknown key, malformed input), so every
// replica would answer the same way. errors.Is/As see through it.
type TerminalError struct{ Err error }

func (e *TerminalError) Error() string { return e.Err.Error() }
func (e *TerminalError) Unwrap() error { return e.Err }

// Terminal wraps err so Hedge stops immediately instead of trying the next
// replica. A nil err stays nil.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &TerminalError{Err: err}
}

// IsTerminal reports whether err was marked with Terminal.
func IsTerminal(err error) bool {
	var t *TerminalError
	return errors.As(err, &t)
}

// HedgeOutcome reports what a Hedge call launched past its first attempt:
// time-triggered backups (Hedges) and error-triggered retries (Failovers).
// A call made 1 + Hedges + Failovers attempts.
type HedgeOutcome struct {
	Hedges    int
	Failovers int
}

// Hedge runs attempt(ctx, 0..n-1) with tail-latency hedging and failover:
// attempt 0 starts immediately; whenever the newest attempt has been
// in-flight for delay, the next index is launched as a backup (a hedge;
// delay <= 0 disables them, error-triggered failover still runs);
// whenever an attempt fails transiently, the next index is launched at
// once (a failover). The first success wins and every other in-flight
// attempt is cancelled through its context. A TerminalError from any
// attempt aborts the whole call. When all n attempts fail, the last
// transient error is returned. Each attempt's context is derived from
// ctx, so cancelling ctx cancels everything.
func Hedge[T any](ctx context.Context, n int, delay time.Duration, attempt func(ctx context.Context, i int) (T, error)) (T, HedgeOutcome, error) {
	var zero T
	var out HedgeOutcome
	if n <= 0 {
		return zero, out, errors.New("resilience: hedge: no attempts available")
	}

	type result struct {
		v   T
		err error
	}
	// Buffered to n so losers finishing after the winner never block.
	results := make(chan result, n)
	cancels := make([]context.CancelFunc, 0, n)
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	next := 0
	launch := func() {
		i := next
		next++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			v, err := attempt(actx, i)
			results <- result{v: v, err: err}
		}()
	}

	var timer *time.Timer
	var timerC <-chan time.Time
	arm := func() {
		if delay > 0 && next < n {
			timer = time.NewTimer(delay)
			timerC = timer.C
		}
	}
	disarm := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	defer disarm()

	launch()
	arm()
	pending := 1
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return zero, out, ctx.Err()
		case <-timerC:
			disarm()
			out.Hedges++
			launch()
			pending++
			arm()
		case res := <-results:
			if res.err == nil {
				return res.v, out, nil
			}
			if ctx.Err() != nil {
				// The failure is our own cancellation, not a verdict on
				// the replica.
				return zero, out, ctx.Err()
			}
			if IsTerminal(res.err) {
				return zero, out, res.err
			}
			lastErr = res.err
			pending--
			if next < n {
				disarm()
				out.Failovers++
				launch()
				pending++
				arm()
			} else if pending == 0 {
				return zero, out, lastErr
			}
		}
	}
}
