package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/skc"
	"repro/internal/tasks"
)

// fixedOracle returns a single predetermined knowledge candidate.
type fixedOracle struct{ k *tasks.Knowledge }

func (o fixedOracle) Generate(akb.GenerateRequest) []*tasks.Knowledge {
	return []*tasks.Knowledge{o.k}
}
func (o fixedOracle) Feedback(akb.FeedbackRequest) string { return "fb" }
func (o fixedOracle) Refine(akb.RefineRequest) []*tasks.Knowledge {
	return nil
}

func percentED(rng *rand.Rand, n int) []*data.Instance {
	var out []*data.Instance
	for i := 0; i < n; i++ {
		v, gold := "0.05", 1
		if rng.Intn(2) == 0 {
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

func testUpstream() (*model.Model, []*skc.NamedSnapshot) {
	base := model.New(model.Config{Name: "t", Dim: 1 << 9, Hidden: 12, Seed: 2})
	rng := rand.New(rand.NewSource(3))
	sources := []skc.Source{{Name: "up", Examples: model.ExamplesFrom(tasks.ED, percentED(rng, 40), nil)}}
	snaps := skc.ExtractPatches(base, sources, skc.Options{Seed: 4})
	return base, snaps
}

func TestTransferFullPipeline(t *testing.T) {
	upstream, snaps := testUpstream()
	rng := rand.New(rand.NewSource(5))
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true,
		Oracle: fixedOracle{k: &tasks.Knowledge{
			Rules: []tasks.Rule{{
				Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
				Answer: tasks.Answer{Literal: tasks.AnswerYes},
				Weight: 1,
			}},
		}}}
	ad, err := kt.Transfer(context.Background(), tasks.ED, percentED(rng, 20), 6)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Model == nil || ad.Fusion == nil {
		t.Fatal("SKC artifacts missing")
	}
	if ad.AKBResult == nil {
		t.Fatal("AKB result missing")
	}
	test := percentED(rng, 40)
	if score := ad.Evaluate(test); score < 80 {
		t.Fatalf("full transfer should nearly solve the toy task, got %v", score)
	}
	// Predict must be consistent with Evaluate.
	for _, in := range test[:5] {
		got := ad.Predict(context.Background(), in)
		if got != tasks.AnswerYes && got != tasks.AnswerNo {
			t.Fatalf("illegal prediction %q", got)
		}
	}
	if ad.SearchedKnowledge() != ad.Knowledge {
		t.Fatal("SearchedKnowledge accessor broken")
	}
}

func TestTransferAblations(t *testing.T) {
	upstream, snaps := testUpstream()
	rng := rand.New(rand.NewSource(7))
	fewshot := percentED(rng, 20)

	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseAKB: true, Oracle: fixedOracle{k: &tasks.Knowledge{}}}
	ad, err := kt.Transfer(context.Background(), tasks.ED, fewshot, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Fusion != nil {
		t.Fatal("w/o SKC must not build a fusion")
	}
	if ad.AKBResult == nil {
		t.Fatal("w/o SKC still runs AKB")
	}

	kt2 := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true}
	ad2, err := kt2.Transfer(context.Background(), tasks.ED, fewshot, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ad2.Knowledge != nil || ad2.AKBResult != nil {
		t.Fatal("w/o AKB must not search knowledge")
	}
	if ad2.Fusion == nil {
		t.Fatal("w/o AKB still runs SKC")
	}
}

func TestTransferErrors(t *testing.T) {
	upstream, snaps := testUpstream()
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true} // oracle nil
	if _, err := kt.Transfer(context.Background(), tasks.ED, nil, 1); err == nil {
		t.Fatal("empty few-shot must error")
	}
	rng := rand.New(rand.NewSource(10))
	if _, err := kt.Transfer(context.Background(), tasks.ED, percentED(rng, 5), 1); err == nil {
		t.Fatal("AKB without oracle must error")
	}
}

func TestTransferLeavesUpstreamUntouched(t *testing.T) {
	upstream, snaps := testUpstream()
	before := upstream.Export()
	rng := rand.New(rand.NewSource(11))
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true, Oracle: fixedOracle{k: &tasks.Knowledge{}}}
	if _, err := kt.Transfer(context.Background(), tasks.ED, percentED(rng, 20), 12); err != nil {
		t.Fatal(err)
	}
	after := upstream.Export()
	for name, w := range before.Mats {
		for i := range w {
			if after.Mats[name][i] != w[i] {
				t.Fatal("Transfer mutated the shared upstream model")
			}
		}
	}
}
