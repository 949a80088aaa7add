package akb

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/tasks"
)

// TestSearchRecordsTelemetry runs the search with a live recorder and
// checks the oracle-call / predictor-eval counters and the span tree: the
// AKB iterations (with their Generation/Evaluation/Feedback/Refinement
// children) must nest under akb.search.
func TestSearchRecordsTelemetry(t *testing.T) {
	valid := percentInstances(20)
	// All-useless generation forces the feedback/refinement path.
	o := &fakeOracle{
		perfect: &tasks.Knowledge{Text: "still useless"},
		useless: &tasks.Knowledge{},
		refined: percentRule(),
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	cfg := DefaultConfig(3)
	cfg.Rec = obs.NewRecorder(reg, obs.NewTracer(&buf))

	res := Search(fakePredictor{}, o, tasks.ED, valid, nil, cfg)
	if res.BestScore != 100 {
		t.Fatalf("instrumentation changed the search outcome: score %v", res.BestScore)
	}

	oracleCalls := reg.Counter("akb.oracle_calls").Value()
	wantOracle := int64(1 + o.refineCalls*2) // generate + (feedback+refine) per refinement
	if oracleCalls != wantOracle {
		t.Errorf("akb.oracle_calls = %d, want %d", oracleCalls, wantOracle)
	}
	if evals := reg.Counter("akb.predictor_evals").Value(); evals < int64(len(valid)) {
		t.Errorf("akb.predictor_evals = %d, want >= %d", evals, len(valid))
	}
	if got := reg.Histogram("akb.candidate_score", nil).Count(); got == 0 {
		t.Error("no candidate scores observed")
	}
	if best := reg.Gauge("akb.best_score").Value(); best != 100 {
		t.Errorf("akb.best_score gauge = %v, want 100", best)
	}

	recs, _, err := obs.ReadJSONL[obs.SpanRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]obs.SpanRecord{}
	count, events := map[string]int{}, map[string]int{}
	for _, r := range recs {
		if r.IsEvent() {
			events[r.Name]++
			continue
		}
		byID[r.Span] = r
		count[r.Name]++
	}
	// The decisions of the search ride the span timeline as events: every
	// scored candidate, every feedback text and refinement batch, and the
	// one final selection.
	if events["akb.candidate"] == 0 || events["akb.feedback"] != o.refineCalls || events["akb.refined"] != o.refineCalls || events["akb.selected"] != 1 {
		t.Errorf("events %v, want akb.candidate > 0, akb.feedback = akb.refined = %d refinements, one akb.selected", events, o.refineCalls)
	}
	if count["akb.search"] != 1 {
		t.Fatalf("span counts: %v", count)
	}
	for _, name := range []string{"akb.generation", "akb.iteration", "akb.evaluation", "akb.feedback", "akb.refinement"} {
		if count[name] == 0 {
			t.Errorf("missing %s span (have %v)", name, count)
		}
	}
	for _, r := range recs {
		switch r.Name {
		case "akb.iteration":
			if byID[r.Parent].Name != "akb.search" {
				t.Errorf("akb.iteration parent = %q", byID[r.Parent].Name)
			}
		case "akb.evaluation", "akb.feedback", "akb.refinement":
			if byID[r.Parent].Name != "akb.iteration" {
				t.Errorf("%s parent = %q", r.Name, byID[r.Parent].Name)
			}
		}
	}
}

// TestSearchResultUnchangedByRecorder pins that observability is purely
// passive: the same seed with and without a recorder selects the same
// knowledge with the same score and step trajectory.
func TestSearchResultUnchangedByRecorder(t *testing.T) {
	valid := percentInstances(20)
	mk := func(rec *obs.Recorder) *Result {
		o := &fakeOracle{perfect: percentRule(), useless: &tasks.Knowledge{Text: "no signal"}}
		cfg := DefaultConfig(7)
		cfg.Rec = rec
		return Search(fakePredictor{}, o, tasks.ED, valid, nil, cfg)
	}
	plain := mk(nil)
	traced := mk(obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(&bytes.Buffer{})))
	if plain.BestScore != traced.BestScore || len(plain.Steps) != len(traced.Steps) {
		t.Fatalf("recorder changed the search: %v/%d vs %v/%d",
			plain.BestScore, len(plain.Steps), traced.BestScore, len(traced.Steps))
	}
	for i := range plain.Steps {
		if plain.Steps[i] != traced.Steps[i] {
			t.Fatalf("step %d diverged: %+v vs %+v", i, plain.Steps[i], traced.Steps[i])
		}
	}
}
