package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestHedgeFirstAttemptWins(t *testing.T) {
	v, out, err := Hedge(context.Background(), 3, time.Second,
		func(ctx context.Context, i int) (string, error) {
			return fmt.Sprintf("ans-%d", i), nil
		})
	if err != nil {
		t.Fatalf("Hedge: %v", err)
	}
	if v != "ans-0" {
		t.Fatalf("got %q, want ans-0 from attempt 0", v)
	}
	if out != (HedgeOutcome{}) {
		t.Fatalf("outcome = %+v, want single attempt", out)
	}
}

func TestHedgeBackupWinsAndLoserCancelled(t *testing.T) {
	cancelled := make(chan struct{})
	v, out, err := Hedge(context.Background(), 2, 10*time.Millisecond,
		func(ctx context.Context, i int) (string, error) {
			if i == 0 {
				// Slow replica: should lose to the hedge and then observe
				// cancellation.
				select {
				case <-ctx.Done():
					close(cancelled)
					return "", ctx.Err()
				case <-time.After(5 * time.Second):
					return "slow", nil
				}
			}
			return "fast", nil
		})
	if err != nil {
		t.Fatalf("Hedge: %v", err)
	}
	if v != "fast" {
		t.Fatalf("got %q, want fast from attempt 1", v)
	}
	if out != (HedgeOutcome{Hedges: 1}) {
		t.Fatalf("outcome = %+v, want 1 hedge over 2 attempts", out)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing attempt was never cancelled")
	}
}

func TestHedgeFailsOverOnError(t *testing.T) {
	v, out, err := Hedge(context.Background(), 3, time.Second,
		func(ctx context.Context, i int) (string, error) {
			if i == 0 {
				return "", errors.New("connection refused")
			}
			return fmt.Sprintf("ans-%d", i), nil
		})
	if err != nil {
		t.Fatalf("Hedge: %v", err)
	}
	if v != "ans-1" {
		t.Fatalf("got %q, want ans-1 from attempt 1", v)
	}
	if out != (HedgeOutcome{Failovers: 1}) {
		t.Fatalf("outcome = %+v, want 1 failover, 0 hedges", out)
	}
}

func TestHedgeAllFailReturnsLastError(t *testing.T) {
	wantErr := errors.New("backend 2 down")
	v, out, err := Hedge(context.Background(), 3, time.Second,
		func(ctx context.Context, i int) (string, error) {
			if i == 2 {
				return "", wantErr
			}
			return "", fmt.Errorf("backend %d down", i)
		})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want last error %v", err, wantErr)
	}
	if v != "" || out != (HedgeOutcome{Failovers: 2}) {
		t.Fatalf("got %q, outcome = %+v, want no winner after 3 attempts, 2 failovers", v, out)
	}
}

func TestHedgeTerminalErrorShortCircuits(t *testing.T) {
	sentinel := errors.New("unknown key")
	var attempts atomic.Int32
	_, out, err := Hedge(context.Background(), 3, time.Second,
		func(ctx context.Context, i int) (string, error) {
			attempts.Add(1)
			return "", Terminal(fmt.Errorf("replica says: %w", sentinel))
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !IsTerminal(err) {
		t.Fatalf("err %v should still be marked terminal", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (terminal error must not fail over)", got)
	}
	if out.Failovers != 0 || out.Hedges != 0 {
		t.Fatalf("outcome = %+v, want no extra attempts", out)
	}
}

func TestHedgeRespectsAttemptCap(t *testing.T) {
	var attempts atomic.Int32
	_, out, err := Hedge(context.Background(), 2, time.Millisecond,
		func(ctx context.Context, i int) (string, error) {
			attempts.Add(1)
			return "", errors.New("down")
		})
	if err == nil {
		t.Fatal("want error when every replica fails")
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want exactly the cap of 2", got)
	}
	if out.Hedges+out.Failovers != 1 {
		t.Fatalf("outcome = %+v, want one attempt past the first", out)
	}
}

func TestHedgeParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, _, err := Hedge(ctx, 1, 0,
		func(ctx context.Context, i int) (string, error) {
			<-ctx.Done()
			return "", ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBreakerStandalone(t *testing.T) {
	var states []State
	trips := 0
	b := NewBreaker(BreakerConfig{
		Cooldown: 2,
		OnState:  func(s State) { states = append(states, s) },
		OnTrip:   func() { trips++ },
	})
	if b.State() != StateClosed {
		t.Fatalf("initial state = %v, want closed", b.State())
	}
	// breakerThreshold consecutive failures trip it; one fewer does not.
	for i := 0; i < breakerThreshold; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		if b.State() != StateClosed {
			t.Fatalf("state = %v after %d failures, want closed", b.State(), i)
		}
		b.Failure()
	}
	if b.State() != StateOpen || trips != 1 {
		t.Fatalf("state = %v trips = %d, want open after threshold", b.State(), trips)
	}
	// Cooldown of 2: first call rejected, second admitted as probe.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a call during cooldown: %v", err)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("cooled-down breaker rejected the probe: %v", err)
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open probe", b.State())
	}
	// breakerProbes successes close it.
	for i := 0; i < breakerProbes; i++ {
		if b.State() != StateHalfOpen {
			t.Fatalf("state = %v after %d probe successes, want half-open", b.State(), i)
		}
		b.Success()
	}
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed after %d successful probes", b.State(), breakerProbes)
	}
	want := []State{StateOpen, StateHalfOpen, StateClosed}
	if len(states) != len(want) {
		t.Fatalf("state transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state transitions = %v, want %v", states, want)
		}
	}
}
