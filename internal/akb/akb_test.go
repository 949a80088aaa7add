package akb

import (
	"context"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/tasks"
)

// search runs SearchFallible over an infallible oracle, the way every
// in-process caller does.
func search(pred Predictor, o Oracle, kind tasks.Kind, valid, probe []*data.Instance, cfg Config) *Result {
	return SearchFallible(context.Background(), pred, AsFallible(o), kind, valid, probe, cfg)
}

// fakePredictor answers by applying the knowledge's rules if any fire,
// otherwise always "no" — a stand-in DP-LLM with a known knowledge gap.
type fakePredictor struct{}

func (fakePredictor) PredictBatchWith(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string {
	out := make([]string, len(ins))
	for n, in := range ins {
		hints := k.Hints(nil, in)
		best, bestH := -1, 0.0
		for i, h := range hints {
			if h > bestH {
				best, bestH = i, h
			}
		}
		out[n] = tasks.AnswerNo
		if best >= 0 {
			out[n] = in.Candidates[best]
		}
	}
	return out
}

// fakeOracle returns a fixed pool: one useless and one perfect knowledge.
type fakeOracle struct {
	generateCalls int
	refineCalls   int
	perfect       *tasks.Knowledge
	useless       *tasks.Knowledge
	refined       *tasks.Knowledge
}

func (o *fakeOracle) Generate(req GenerateRequest) []*tasks.Knowledge {
	o.generateCalls++
	return []*tasks.Knowledge{o.useless, o.perfect}
}

func (o *fakeOracle) Feedback(req FeedbackRequest) string { return "feedback text" }

func (o *fakeOracle) Refine(req RefineRequest) []*tasks.Knowledge {
	o.refineCalls++
	if o.refined != nil {
		return []*tasks.Knowledge{o.refined}
	}
	return nil
}

func percentInstances(n int) []*data.Instance {
	var out []*data.Instance
	for i := 0; i < n; i++ {
		v, gold := "0.05", 1
		if i%2 == 0 {
			v, gold = "0.05%", 0
		}
		out = append(out, &data.Instance{
			Fields:     []data.Field{{Name: "abv", Value: v}},
			Target:     "abv",
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		})
	}
	return out
}

func percentRule() *tasks.Knowledge {
	return &tasks.Knowledge{
		Text: "ABV containing % is an error.",
		Rules: []tasks.Rule{{
			Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
			Answer: tasks.Answer{Literal: tasks.AnswerYes},
			Weight: 1,
		}},
	}
}

func TestSearchPicksBestCandidate(t *testing.T) {
	valid := percentInstances(20)
	o := &fakeOracle{
		perfect: percentRule(),
		useless: &tasks.Knowledge{Text: "no signal here"},
	}
	res := search(fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(1))
	if res.Best != o.perfect {
		t.Fatalf("search should select the perfect knowledge, got %+v", res.Best)
	}
	if res.BestScore != 100 {
		t.Fatalf("best score should be 100, got %v", res.BestScore)
	}
	if o.generateCalls != 1 {
		t.Fatalf("generate called %d times", o.generateCalls)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestSearchStopsWhenNoErrors(t *testing.T) {
	valid := percentInstances(10)
	o := &fakeOracle{perfect: percentRule(), useless: &tasks.Knowledge{}}
	cfg := DefaultConfig(2)
	cfg.Iterations = 5
	res := search(fakePredictor{}, o, tasks.ED, valid, nil, cfg)
	// Perfect knowledge found in iteration 0 → error set empty → converged.
	if o.refineCalls != 0 {
		t.Fatalf("refinement should be skipped after convergence, got %d calls", o.refineCalls)
	}
	if len(res.Steps) != 1 {
		t.Fatalf("expected 1 step, got %d", len(res.Steps))
	}
}

func TestSearchUsesRefinement(t *testing.T) {
	valid := percentInstances(20)
	// The generated pool is all useless; only refinement yields the fix.
	o := &fakeOracle{
		perfect: &tasks.Knowledge{Text: "still useless"},
		useless: &tasks.Knowledge{},
		refined: percentRule(),
	}
	res := search(fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(3))
	if o.refineCalls == 0 {
		t.Fatal("refinement never invoked")
	}
	if res.Best != o.refined || res.BestScore != 100 {
		t.Fatalf("refined knowledge should win: score %v", res.BestScore)
	}
}

func TestSearchRecordsProbeScores(t *testing.T) {
	valid := percentInstances(10)
	probe := percentInstances(30)
	o := &fakeOracle{perfect: percentRule(), useless: &tasks.Knowledge{}}
	res := search(fakePredictor{}, o, tasks.ED, valid, probe, DefaultConfig(4))
	for _, s := range res.Steps {
		if s.TestScore < 0 {
			t.Fatalf("probe scores missing: %+v", s)
		}
	}
}

func TestErrorsAndEvaluate(t *testing.T) {
	ins := percentInstances(10)
	spec := tasks.SpecFor(tasks.ED)
	// Without knowledge the fake predictor answers "no" everywhere: all
	// positives are errors.
	errs := Errors(fakePredictor{}, spec, ins, nil)
	if len(errs) != 5 {
		t.Fatalf("expected 5 errors, got %d", len(errs))
	}
	for _, e := range errs {
		if e.Predicted != tasks.AnswerNo {
			t.Fatalf("unexpected predicted %q", e.Predicted)
		}
		if !strings.Contains(e.Instance.FieldValue("abv"), "%") {
			t.Fatal("errors should be the percent-valued positives")
		}
	}
	if got := Evaluate(fakePredictor{}, spec, ins, percentRule()); got != 100 {
		t.Fatalf("evaluate with rule = %v, want 100", got)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(0)
	if cfg.Iterations != 3 || genExamples != 10 || poolSize != 4 || refinePerIter != 2 || errorsPerSubset != 4 {
		t.Fatalf("search shape diverges from Section VII-A: %+v, %d examples, pool %d, %d rounds of %d errors",
			cfg, genExamples, poolSize, refinePerIter, errorsPerSubset)
	}
}

func TestNilKnowledgeAlwaysInPool(t *testing.T) {
	// An oracle returning nothing must still leave the no-knowledge
	// baseline as the selected candidate.
	valid := percentInstances(6)
	o := &fakeOracle{perfect: &tasks.Knowledge{}, useless: &tasks.Knowledge{}}
	res := search(fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(5))
	if res.Best == nil {
		// nil (no knowledge) is an acceptable winner; the point is Search
		// completed and scored it.
		if res.BestScore < 0 {
			t.Fatal("search failed to score the empty pool")
		}
	}
}
