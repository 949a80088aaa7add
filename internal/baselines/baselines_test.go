package baselines

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/skc"
	"repro/internal/tasks"
)

func smallBundle(key string) *datagen.Bundle { return datagen.ByKey(key, 3, 0.05) }

func ctxFor(b *datagen.Bundle, seed int64) *AdaptContext {
	return &AdaptContext{
		Bundle:  b,
		FewShot: b.DS.FewShot(rand.New(rand.NewSource(seed)), 20),
		Seed:    seed,
	}
}

func tinyBackbone() func() *model.Model {
	return func() *model.Model {
		return model.New(model.Config{Name: "t", Dim: 1 << 10, Hidden: 16, Seed: 5})
	}
}

func TestNonLLMAdaptAllTasks(t *testing.T) {
	m := NonLLM{}
	for _, key := range []string{
		"ED/Beer", "DC/Beer", "EM/Abt-Buy", "SM/CMS", "DI/Phone", "CTA/SOTAB", "AVE/AE-110k",
	} {
		b := smallBundle(key)
		pred := m.Adapt(ctxFor(b, 1))
		score := Evaluate(pred, b.Kind, b.DS.Test)
		if score < 0 || score > 100 {
			t.Fatalf("%s: score %v out of range", key, score)
		}
		// Every prediction must be a legal answer for its instance.
		head := b.DS.Test[:10]
		for i, got := range pred.PredictBatch(context.Background(), head) {
			in := head[i]
			legal := false
			for _, c := range in.Candidates {
				if strings.EqualFold(c, got) {
					legal = true
				}
			}
			if !legal {
				t.Fatalf("%s: prediction %q not among candidates %v", key, got, in.Candidates)
			}
		}
	}
}

func TestProfileDetectorFlagsMissing(t *testing.T) {
	b := smallBundle("ED/Beer")
	pred := NonLLM{}.Adapt(ctxFor(b, 2))
	in := &data.Instance{
		Fields:     []data.Field{{Name: "ibu", Value: "nan"}},
		Target:     "ibu",
		Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
	}
	if got := pred.PredictBatch(context.Background(), []*data.Instance{in}); len(got) != 1 || got[0] != tasks.AnswerYes {
		t.Fatalf("missing value should be flagged, got %q", got)
	}
}

func TestFineTunedLearnsFewShot(t *testing.T) {
	b := smallBundle("EM/Walmart-Amazon")
	ft := &FineTuned{MethodName: "test", Backbone: tinyBackbone()}
	pred := ft.Adapt(ctxFor(b, 3))
	score := Evaluate(pred, b.Kind, b.DS.Test)
	// A fresh tiny model fine-tuned on 20 pairs should clear chance level
	// on this highly separable task.
	if score < 30 {
		t.Fatalf("fine-tuned score suspiciously low: %v", score)
	}
}

func TestICLNoGradientUpdates(t *testing.T) {
	b := smallBundle("EM/Walmart-Amazon")
	backbone := tinyBackbone()()
	before := backbone.Export()
	icl := &ICL{MethodName: "icl", Backbone: func() *model.Model { return backbone }, VoteWeight: 0.5}
	pred := icl.Adapt(ctxFor(b, 4))
	_ = Evaluate(pred, b.Kind, b.DS.Test[:20])
	after := backbone.Export()
	for name, w := range before.Mats {
		for i := range w {
			if after.Mats[name][i] != w[i] {
				t.Fatal("ICL must not update weights")
			}
		}
	}
}

func TestICLPromptTokensLargerThanBare(t *testing.T) {
	b := smallBundle("EM/Walmart-Amazon")
	icl := &ICL{MethodName: "icl", Backbone: tinyBackbone(), VoteWeight: 0.5}
	pred := icl.Adapt(ctxFor(b, 5)).(*iclPredictor)
	in := b.DS.Test[0]
	inputTokens, outputTokens := pred.PromptTokens(in)
	bare := len(strings.Fields(tasks.RenderPrompt(tasks.SpecFor(b.Kind), in, nil)))
	if inputTokens <= bare {
		t.Fatalf("ICL prompt (%d tokens) must exceed the bare prompt (%d): demonstrations are in-context", inputTokens, bare)
	}
	if outputTokens <= 0 {
		t.Fatalf("output tokens = %d", outputTokens)
	}
}

func TestMELDRoutesAndPredicts(t *testing.T) {
	base := tinyBackbone()()
	up := datagen.Upstream(3, 0.03)[:3]
	var sources []skc.Source
	var cents []Centroid
	for _, b := range up {
		sources = append(sources, skc.Source{Name: b.Key(), Examples: model.ExamplesFrom(b.Kind, b.DS.Train, nil)})
		cents = append(cents, CentroidOf(base, b.Key(), b.DS.Train))
	}
	snaps := skc.ExtractPatches(base, sources, skc.Options{Seed: 6})
	m := &MELD{
		Backbone:  func() *model.Model { return base },
		Snaps:     snaps,
		Centroids: cents,
	}
	b := smallBundle("EM/Walmart-Amazon")
	pred := m.Adapt(ctxFor(b, 7))
	score := Evaluate(pred, b.Kind, b.DS.Test)
	if score < 0 || score > 100 {
		t.Fatalf("meld score %v", score)
	}
	// The gate must route: after a prediction at most meldTopK experts active.
	mp := pred.(*meldPredictor)
	mp.Predict(b.DS.Test[0])
	active := 0
	for _, e := range mp.experts {
		if e.coef.Val > 0 {
			active++
		}
	}
	if active == 0 || active > meldTopK {
		t.Fatalf("gate routed %d experts, want 1..%d", active, meldTopK)
	}
}

func TestEvaluateUsesTaskMetric(t *testing.T) {
	b := smallBundle("DI/Phone")
	pred := rowPredictor(constPredictor{tasks.AnswerNA}.Predict)
	score := Evaluate(pred, b.Kind, b.DS.Test)
	if score != 0 {
		t.Fatalf("always-n/a imputer should score 0 accuracy, got %v", score)
	}
}

// shortPredictor answers one row fewer than it was asked.
type shortPredictor struct{}

func (shortPredictor) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	return make([]string, len(ins)-1)
}

// TestEvaluatePanicsOnWrongLength: a predictor that loses a row is a bug in
// the method; scoring what it did answer would report a number for it.
func TestEvaluatePanicsOnWrongLength(t *testing.T) {
	b := smallBundle("DI/Phone")
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate scored a predictor that answered too few rows")
		}
	}()
	Evaluate(shortPredictor{}, b.Kind, b.DS.Test)
}

func TestKNNImputerMemorizes(t *testing.T) {
	b := smallBundle("DI/Phone")
	few := b.DS.FewShot(rand.New(rand.NewSource(8)), 20)
	pred := newKNNImputer(few)
	// On its own training instances the 1-NN imputer must be near-perfect.
	correct := 0
	for _, in := range few {
		if strings.EqualFold(pred.Predict(in), in.GoldText()) {
			correct++
		}
	}
	if correct < len(few)*9/10 {
		t.Fatalf("kNN should memorize its training set: %d/%d", correct, len(few))
	}
}
