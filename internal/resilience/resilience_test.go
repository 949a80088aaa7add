package resilience

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/akb"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// seqOracle fails according to a script: errs[i] is returned by call i
// (nil past the end of the script).
type seqOracle struct {
	errs  []error
	calls int
}

type tempErr struct{ temp bool }

func (e *tempErr) Error() string   { return "scripted failure" }
func (e *tempErr) Temporary() bool { return e.temp }

func (o *seqOracle) next() error {
	i := o.calls
	o.calls++
	if i < len(o.errs) {
		return o.errs[i]
	}
	return nil
}

func (o *seqOracle) Generate(context.Context, akb.GenerateRequest) ([]*tasks.Knowledge, error) {
	if err := o.next(); err != nil {
		return nil, err
	}
	return []*tasks.Knowledge{{Text: "k"}}, nil
}

func (o *seqOracle) Feedback(context.Context, akb.FeedbackRequest) (string, error) {
	if err := o.next(); err != nil {
		return "", err
	}
	return "fb", nil
}

func (o *seqOracle) Refine(context.Context, akb.RefineRequest) ([]*tasks.Knowledge, error) {
	if err := o.next(); err != nil {
		return nil, err
	}
	return []*tasks.Knowledge{{Text: "r"}}, nil
}

func TestRetryUntilSuccess(t *testing.T) {
	inner := &seqOracle{errs: []error{&tempErr{temp: true}, &tempErr{temp: true}}}
	r := New(inner, nil)
	ks, err := r.Generate(context.Background(), akb.GenerateRequest{})
	if err != nil || len(ks) != 1 {
		t.Fatalf("third attempt should succeed: ks=%v err=%v", ks, err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner saw %d calls, want 3", inner.calls)
	}
}

func TestRetriesExhausted(t *testing.T) {
	inner := &seqOracle{errs: []error{
		&tempErr{temp: true}, &tempErr{temp: true}, &tempErr{temp: true},
	}}
	r := New(inner, nil)
	_, err := r.Feedback(context.Background(), akb.FeedbackRequest{})
	if err == nil {
		t.Fatal("three transient failures should exhaust the three attempts")
	}
	var te *tempErr
	if !errors.As(err, &te) {
		t.Fatalf("final error should wrap the last attempt's: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner saw %d calls, want exactly maxAttempts", inner.calls)
	}
}

func TestNonTransientNotRetried(t *testing.T) {
	inner := &seqOracle{errs: []error{&tempErr{temp: false}}}
	r := New(inner, nil)
	_, err := r.Generate(context.Background(), akb.GenerateRequest{})
	if err == nil {
		t.Fatal("permanent failure should surface")
	}
	if inner.calls != 1 {
		t.Fatalf("permanent failure retried: %d calls", inner.calls)
	}
}

func TestContextCancelNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inner := &seqOracle{errs: []error{ctx.Err(), ctx.Err(), ctx.Err()}}
	r := New(inner, nil)
	if _, err := r.Refine(ctx, akb.RefineRequest{}); err == nil {
		t.Fatal("cancellation should surface")
	}
	if inner.calls != 1 {
		t.Fatalf("cancellation retried: %d calls", inner.calls)
	}
}

// permanent scripts n permanent failures: each do() makes exactly one
// attempt, so n calls are n consecutive breaker failures.
func permanent(n int) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = &tempErr{temp: false}
	}
	return errs
}

func TestBreakerLifecycle(t *testing.T) {
	inner := &seqOracle{errs: permanent(breakerThreshold)} // then successes
	r := New(inner, nil)
	ctx := context.Background()

	for i := 0; i < breakerThreshold; i++ {
		if r.br.State() != StateClosed {
			t.Fatalf("breaker %v after %d failures, want closed below %d", r.br.State(), i, breakerThreshold)
		}
		if _, err := r.Generate(ctx, akb.GenerateRequest{}); err == nil {
			t.Fatal("scripted failure lost")
		}
	}
	if r.br.State() != StateOpen {
		t.Fatalf("breaker should be open after %d consecutive failures, is %v", breakerThreshold, r.br.State())
	}

	// While open, calls are rejected without touching the oracle: the
	// cooldown counts off oracleCooldown calls, the last of which probes.
	before := inner.calls
	for i := 0; i < oracleCooldown-1; i++ {
		if _, err := r.Generate(ctx, akb.GenerateRequest{}); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open breaker should short-circuit: %v", err)
		}
	}
	if inner.calls != before {
		t.Fatal("open breaker still called the oracle")
	}
	for probe := 1; probe <= breakerProbes; probe++ {
		if _, err := r.Generate(ctx, akb.GenerateRequest{}); err != nil {
			t.Fatalf("half-open probe %d failed: %v", probe, err)
		}
		want := StateHalfOpen
		if probe == breakerProbes {
			want = StateClosed
		}
		if r.br.State() != want {
			t.Fatalf("after %d of %d successful probes the breaker is %v, want %v", probe, breakerProbes, r.br.State(), want)
		}
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	inner := &seqOracle{errs: permanent(breakerThreshold + 1)} // the trip, then the failed probe
	r := New(inner, nil)
	ctx := context.Background()

	for i := 0; i < breakerThreshold; i++ {
		r.Generate(ctx, akb.GenerateRequest{})
	}
	if r.br.State() != StateOpen {
		t.Fatalf("state %v", r.br.State())
	}
	for i := 0; i < oracleCooldown-1; i++ {
		r.Generate(ctx, akb.GenerateRequest{})
	}
	// Cooled down → this call probes, fails, reopens.
	if _, err := r.Generate(ctx, akb.GenerateRequest{}); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("the probe should reach the oracle and fail, got %v", err)
	}
	if r.br.State() != StateOpen {
		t.Fatalf("failed probe should reopen the breaker, is %v", r.br.State())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateClosed: "closed", StateHalfOpen: "half-open", StateOpen: "open",
	} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q", s, s.String())
		}
	}
}

// TestTelemetry drives one client through a retry, an exhausted call and a
// breaker trip, and reads back every resilience.* series, the span and the
// event the catalogue lists for this package: each fails if its call site goes.
func TestTelemetry(t *testing.T) {
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.NewTracer(&trace))
	inner := &seqOracle{errs: []error{
		&tempErr{temp: true}, nil, // call 1: one retry, then an answer
		&tempErr{temp: true}, &tempErr{temp: true}, &tempErr{temp: true}, // call 2: exhausted
		&tempErr{temp: true}, &tempErr{temp: true}, // call 3: failures 4 and 5 trip the breaker
	}}
	r := New(inner, rec)
	ctx := context.Background()
	if _, err := r.Generate(ctx, akb.GenerateRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Generate(ctx, akb.GenerateRequest{}); err == nil {
		t.Fatal("call 2 should exhaust its attempts")
	}
	if _, err := r.Generate(ctx, akb.GenerateRequest{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("call 3 should end on the open breaker: %v", err)
	}
	if err := rec.Tracer.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"resilience.retries":       4,
		"resilience.failures":      6,
		"resilience.exhausted":     1,
		"resilience.breaker_trips": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["resilience.breaker_state"]; got != float64(StateOpen) {
		t.Errorf("resilience.breaker_state = %v, want %d (open)", got, StateOpen)
	}
	recs, _, err := obs.ReadJSONL[obs.SpanRecord](&trace)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	var attempts []any
	for _, rec := range recs {
		seen[rec.Name]++
		if rec.Name == "akb.oracle_call" {
			attempts = append(attempts, rec.Attrs["attempts"])
		}
	}
	for name, want := range map[string]int{"akb.oracle_call": 3, "resilience.breaker": 1} {
		if seen[name] != want {
			t.Errorf("trace holds %d %s records, want %d", seen[name], name, want)
		}
	}
	// Every outcome says how many tries it took: the answer after one
	// retry, the exhausted call, and the call the breaker cut short.
	if want := []any{2.0, 3.0, 2.0}; !reflect.DeepEqual(attempts, want) {
		t.Errorf("akb.oracle_call attempts = %v, want %v", attempts, want)
	}
}
