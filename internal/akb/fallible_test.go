package akb

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tasks"
)

// flakyOracle fails a scripted subset of calls and otherwise delegates to a
// fixed candidate script, for exercising the degradation paths precisely.
type flakyOracle struct {
	failGenerate bool
	failFeedback bool
	failRefine   bool
	generated    []*tasks.Knowledge
	refined      []*tasks.Knowledge

	generateCalls, feedbackCalls, refineCalls int
}

var errInjected = errors.New("injected oracle failure")

func (o *flakyOracle) Generate(_ context.Context, req GenerateRequest) ([]*tasks.Knowledge, error) {
	o.generateCalls++
	if o.failGenerate {
		return nil, errInjected
	}
	return o.generated, nil
}

func (o *flakyOracle) Feedback(_ context.Context, req FeedbackRequest) (string, error) {
	o.feedbackCalls++
	if o.failFeedback {
		return "", errInjected
	}
	return "feedback", nil
}

func (o *flakyOracle) Refine(_ context.Context, req RefineRequest) ([]*tasks.Knowledge, error) {
	o.refineCalls++
	if o.failRefine {
		return nil, errInjected
	}
	return o.refined, nil
}

func TestNormalizePreservesCallerFields(t *testing.T) {
	c := Config{Iterations: 7, ErrorsPerSubset: 9, Seed: 42}.Normalize()
	d := DefaultConfig(42)
	if c.Iterations != 7 || c.ErrorsPerSubset != 9 {
		t.Fatalf("caller-set fields clobbered: %+v", c)
	}
	if c.GenExamples != d.GenExamples || c.PoolSize != d.PoolSize || c.RefinePerIter != d.RefinePerIter {
		t.Fatalf("unset fields not defaulted: %+v", c)
	}
	if c.Seed != 42 {
		t.Fatalf("seed changed: %+v", c)
	}
	if z := (Config{}).Normalize(); z != DefaultConfig(0) {
		t.Fatalf("all-zero config should normalize to the paper defaults, got %+v", z)
	}
}

// TestSearchPreservesPartialConfig is the regression test for the old
// Iterations==0 sentinel: a Config with only some fields set used to be
// replaced wholesale by DefaultConfig inside Search.
func TestSearchPreservesPartialConfig(t *testing.T) {
	valid := percentInstances(20)
	o := &flakyOracle{generated: []*tasks.Knowledge{percentRule()}, failFeedback: true}
	cfg := Config{RefinePerIter: 5, Seed: 3} // Iterations unset → default 3
	res := SearchFallible(context.Background(), fakePredictor{}, o, tasks.ED, valid, nil, cfg)
	if res == nil {
		t.Fatal("nil result")
	}
	// Perfect rule → converges in iteration 0, so RefinePerIter isn't
	// observable; verify via a useless pool where every iteration refines.
	o2 := &flakyOracle{generated: []*tasks.Knowledge{{Text: "useless"}}, failRefine: true}
	SearchFallible(context.Background(), fakePredictor{}, o2, tasks.ED, valid, nil, cfg)
	// 3 default iterations, refinement after the first two: 2 * RefinePerIter.
	if want := 2 * 5; o2.feedbackCalls != want {
		t.Fatalf("RefinePerIter=5 not honored: %d feedback calls, want %d", o2.feedbackCalls, want)
	}
}

func TestSearchDegradesOnGenerateFailure(t *testing.T) {
	valid := percentInstances(10)
	o := &flakyOracle{failGenerate: true, failFeedback: true}
	res := SearchFallible(context.Background(), fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(1))
	if res == nil {
		t.Fatal("search returned nil under total oracle failure")
	}
	if res.Best != nil {
		t.Fatalf("dead oracle should leave the no-knowledge baseline, got %+v", res.Best)
	}
	if !res.Degraded() || res.DegradedRounds == 0 {
		t.Fatalf("degradation not reported: %+v", res)
	}
	// 1 failed generation + 2 iterations × 2 failed feedback rounds.
	if want := 1 + 2*2; res.DegradedRounds != want {
		t.Fatalf("DegradedRounds = %d, want %d", res.DegradedRounds, want)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
	if res.Steps[0].Degraded == 0 {
		t.Fatalf("iteration with failed feedback rounds should record a degraded step: %+v", res.Steps)
	}
}

func TestSearchDegradesOnRefineFailure(t *testing.T) {
	valid := percentInstances(20)
	o := &flakyOracle{generated: []*tasks.Knowledge{{Text: "useless"}}, failRefine: true}
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	cfg := DefaultConfig(2)
	cfg.Rec = obs.NewRecorder(reg, obs.NewTracer(&trace))
	res := SearchFallible(context.Background(), fakePredictor{}, o, tasks.ED, valid, nil, cfg)
	if res.DegradedRounds != o.refineCalls || res.DegradedRounds == 0 {
		t.Fatalf("every failed refine should degrade: %d degraded, %d refine calls",
			res.DegradedRounds, o.refineCalls)
	}
	// The telemetry owns up to each skipped round too: the counter, and one
	// akb.degraded event carrying the error.
	recs, _, err := obs.ReadJSONL[obs.SpanRecord](&trace)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, r := range recs {
		if r.Name == "akb.degraded" && r.Attrs["op"] == "refine" && r.Attrs["err"] != nil {
			degraded++
		}
	}
	if got := reg.Snapshot().Counters["akb.degraded_rounds"]; got != int64(res.DegradedRounds) || degraded != res.DegradedRounds {
		t.Fatalf("akb.degraded_rounds = %d and %d akb.degraded events for %d degraded rounds", got, degraded, res.DegradedRounds)
	}
	// Feedback succeeded, so its text is still collected.
	if len(res.Feedbacks) != o.feedbackCalls {
		t.Fatalf("feedbacks lost: %d kept, %d calls", len(res.Feedbacks), o.feedbackCalls)
	}
}

func TestSearchSanitizesMalformedCandidates(t *testing.T) {
	valid := percentInstances(20)
	nanRule := percentRule()
	nanRule.Rules[0].Weight = math.NaN()
	o := &flakyOracle{
		generated: []*tasks.Knowledge{
			nil,     // rejected: baseline already in pool
			nanRule, // wholly malformed once the NaN rule is dropped... text remains
			{Rules: []tasks.Rule{{Weight: math.Inf(1)}}}, // rejected outright
			percentRule(),
		},
		failFeedback: true,
	}
	reg := obs.NewRegistry()
	cfg := DefaultConfig(3)
	cfg.Rec = obs.NewRecorder(reg, nil)
	res := SearchFallible(context.Background(), fakePredictor{}, o, tasks.ED, valid, nil, cfg)
	if res.Rejected != 2 {
		t.Fatalf("expected 2 rejected candidates (nil + all-malformed), got %d", res.Rejected)
	}
	if got := reg.Snapshot().Counters["akb.candidates_rejected"]; got != 2 {
		t.Fatalf("akb.candidates_rejected = %d, want 2", got)
	}
	if res.BestScore != 100 {
		t.Fatalf("healthy candidate should still win, score %v", res.BestScore)
	}
	if res.Best == nil || len(res.Best.Rules) == 0 || badWeight(res.Best.Rules[0].Weight) {
		t.Fatalf("selected candidate not sane: %+v", res.Best)
	}
}

func TestSanitizeCandidates(t *testing.T) {
	healthy := percentRule()
	kept, rejected := SanitizeCandidates([]*tasks.Knowledge{healthy})
	if rejected != 0 || len(kept) != 1 || kept[0] != healthy {
		t.Fatalf("healthy candidate must pass through by pointer: kept=%v rejected=%d", kept, rejected)
	}

	over := percentRule()
	over.Rules[0].Weight = 3.5
	kept, _ = SanitizeCandidates([]*tasks.Knowledge{over})
	if len(kept) != 1 || kept[0] == over || kept[0].Rules[0].Weight != 1 {
		t.Fatalf("overweight rule should be clamped on a clone: %+v", kept)
	}
	if over.Rules[0].Weight != 3.5 {
		t.Fatal("sanitize mutated the oracle's own candidate")
	}

	long := &tasks.Knowledge{Text: string(make([]byte, MaxKnowledgeText+100))}
	kept, _ = SanitizeCandidates([]*tasks.Knowledge{long})
	if len(kept) != 1 || len(kept[0].Text) != MaxKnowledgeText {
		t.Fatalf("oversized text not truncated: %d bytes", len(kept[0].Text))
	}

	neg := &tasks.Knowledge{Rules: []tasks.Rule{{Weight: -1}}}
	kept, rejected = SanitizeCandidates([]*tasks.Knowledge{neg, nil})
	if len(kept) != 0 || rejected != 2 {
		t.Fatalf("all-malformed and nil candidates must be rejected: kept=%d rejected=%d", len(kept), rejected)
	}
}

func TestEvaluateEmptyInstances(t *testing.T) {
	spec := tasks.SpecFor(tasks.ED)
	if got := Evaluate(fakePredictor{}, spec, nil, percentRule()); got != 0 {
		t.Fatalf("empty instance set should score 0, got %v", got)
	}
}

func TestSearchEmptyValidDoesNotPanic(t *testing.T) {
	o := &flakyOracle{generated: []*tasks.Knowledge{percentRule()}}
	res := SearchFallible(context.Background(), fakePredictor{}, o, tasks.ED, nil, nil, DefaultConfig(4))
	if res == nil {
		t.Fatal("nil result for empty validation set")
	}
	if res.BestScore != 0 {
		t.Fatalf("empty validation set should score 0, got %v", res.BestScore)
	}
}

// TestSearchInfallibleAdapter pins that the plain-Oracle entry point routes
// through the same degradation-aware loop (and therefore sanitization).
func TestSearchInfallibleAdapter(t *testing.T) {
	valid := percentInstances(10)
	o := &fakeOracle{perfect: percentRule(), useless: &tasks.Knowledge{Text: "x"}}
	res := Search(fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(5))
	if res.Degraded() || res.Rejected != 0 {
		t.Fatalf("infallible oracle must never degrade: %+v", res)
	}
	if res.BestScore != 100 {
		t.Fatalf("score %v", res.BestScore)
	}
}
