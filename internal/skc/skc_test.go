package skc

import (
	"math/rand"
	"testing"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/tasks"
)

// The toy transfer scenario: binary ED-style datasets keyed by which marker
// token implies an error. The "relevant" upstream dataset shares the
// downstream rule (marker "%"), the "conflicting" one uses the OPPOSITE rule
// (marker "%" is fine, marker "#" is the error) — the gradient-conflict
// setup of Fig. 1.
func markerDataset(rng *rand.Rand, n int, errMarker, okMarker string) []*data.Instance {
	var out []*data.Instance
	for i := 0; i < n; i++ {
		marker, gold := okMarker, 1
		if rng.Intn(2) == 0 {
			marker, gold = errMarker, 0
		}
		val := "0.05" + marker
		out = append(out, &data.Instance{
			Fields:     []data.Field{{Name: "val", Value: val}, {Name: "ctx", Value: "row " + string(rune('a'+rng.Intn(26)))}},
			Target:     "val",
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		})
	}
	return out
}

func tinyModel(seed int64) *model.Model {
	return model.New(model.Config{Name: "tiny", Dim: 1 << 9, Hidden: 12, Seed: seed})
}

func testOptions() Options {
	return Options{
		patch:      lora.Config{Rank: 2, Alpha: 1},
		patchTrain: model.TrainConfig{Epochs: 4, LR: 0.05, Clip: 5, Seed: 11},
		fewShot:    model.TrainConfig{Epochs: 10, LR: 0.05, Clip: 5, Seed: 12},
		Seed:       5,
	}
}

// TestDefaultOptions: a caller that sets only the seed — core.Transfer, the
// benchmark's traced Transfer, the zoo's patch extraction — gets the paper's
// patch shape, the 2-epoch patch-extraction schedule and the one few-shot
// schedule, each on its own offset of the seed.
func TestDefaultOptions(t *testing.T) {
	const s = 40
	o := Options{Seed: s}.withDefaults()
	if o.patch != lora.DefaultConfig() {
		t.Errorf("patch %+v, want lora.DefaultConfig() %+v", o.patch, lora.DefaultConfig())
	}
	if want := (model.TrainConfig{Epochs: 2, LR: 0.02, Clip: 5, Seed: s + 1}); o.patchTrain != want {
		t.Errorf("patch schedule %+v, want %+v", o.patchTrain, want)
	}
	if want := model.FewShotTrain(s + 2); o.fewShot != want {
		t.Errorf("few-shot schedule %+v, want %+v", o.fewShot, want)
	}
}

func TestExtractPatchesLeavesBaseUntouched(t *testing.T) {
	base := tinyModel(1)
	before := base.Export()
	rng := rand.New(rand.NewSource(2))
	sources := []Source{
		{Name: "rel", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 40, "%", ""), nil)},
		{Name: "conf", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 40, "#", "%"), nil)},
	}
	snaps := ExtractPatches(base, sources, testOptions())
	if len(snaps) != 2 {
		t.Fatalf("expected 2 snapshots, got %d", len(snaps))
	}
	after := base.Export()
	for name, w := range before.Mats {
		for i := range w {
			if after.Mats[name][i] != w[i] {
				t.Fatal("ExtractPatches mutated the base model")
			}
		}
	}
	// Patches must actually contain knowledge (non-zero A after training).
	for _, ns := range snaps {
		var nonzero bool
		for _, a := range ns.Snap.A {
			for _, v := range a.Data {
				if v != 0 {
					nonzero = true
				}
			}
		}
		if !nonzero {
			t.Fatalf("patch %s learned nothing", ns.Name)
		}
	}
}

func TestTransferImprovesOverZeroShot(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(3))
	// Upstream model: multi-task FT on both conflicting datasets.
	upstream := base.Clone()
	// The conflicting dataset carries the EXACT opposite rule ("%" is fine,
	// plain is the error), so shared-parameter multi-task training cannot
	// satisfy both — the tug-of-war of Fig. 1.
	mixed := append(
		model.ExamplesFrom(tasks.ED, markerDataset(rng, 60, "%", ""), nil),
		model.ExamplesFrom(tasks.ED, markerDataset(rng, 60, "", "%"), nil)...)
	ps := upstream.Params()
	model.Train(upstream, mixed, model.TrainConfig{Epochs: 3, LR: 0.03, Clip: 5, Seed: 4}, &ps)

	sources := []Source{
		{Name: "rel", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 60, "%", ""), nil)},
		{Name: "conf", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 60, "", "%"), nil)},
	}
	snaps := ExtractPatches(base, sources, testOptions())

	// Two downstream targets, one per upstream rule. Because the upstream
	// rules are exact opposites, the shared-parameter upstream model cannot
	// score high on both — that is the knowledge-distraction symptom. SKC
	// transfer must solve each side from 20 examples.
	spec := tasks.SpecFor(tasks.ED)
	relTest := markerDataset(rng, 80, "%", "")
	confTest := markerDataset(rng, 80, "", "%")
	zeroRel := akb.Evaluate(upstream, spec, relTest, nil)
	zeroConf := akb.Evaluate(upstream, spec, confTest, nil)
	minZero := zeroRel
	if zeroConf < minZero {
		minZero = zeroConf
	}
	if minZero > 75 {
		t.Fatalf("conflicting upstream rules should leave the shared model degraded on one side, got %v and %v", zeroRel, zeroConf)
	}
	for i, target := range []struct {
		fewshot, test []*data.Instance
	}{
		{markerDataset(rng, 20, "%", ""), relTest},
		{markerDataset(rng, 20, "", "%"), confTest},
	} {
		tr, err := Transfer(upstream, snaps, model.ExamplesFrom(tasks.ED, target.fewshot, nil), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if after := akb.Evaluate(tr.Model, spec, target.test, nil); after < 90 {
			t.Fatalf("transfer %d should nearly solve the toy task, got %v", i, after)
		}
	}
}

func TestAdaptiveLambdaPrefersRelevantPatch(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(7))
	upstream := base.Clone()
	sources := []Source{
		{Name: "relevant", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 80, "%", ""), nil)},
		{Name: "conflicting", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 80, "#", "%"), nil)},
	}
	snaps := ExtractPatches(base, sources, testOptions())
	fewshot := markerDataset(rng, 20, "%", "")
	opts := testOptions()
	opts.fewShot.Epochs = 20
	tr, err := Transfer(upstream, snaps, model.ExamplesFrom(tasks.ED, fewshot, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Fusion.Weights()
	if len(w) != 2 {
		t.Fatalf("expected 2 λ, got %v", w)
	}
	if w[0] <= w[1] {
		t.Fatalf("λ(relevant)=%v should exceed λ(conflicting)=%v", w[0], w[1])
	}
}

func TestUniformStrategyFreezesLambda(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(8))
	sources := []Source{
		{Name: "a", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "%", ""), nil)},
		{Name: "b", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "#", "%"), nil)},
	}
	snaps := ExtractPatches(base, sources, testOptions())
	opts := testOptions()
	opts.Strategy = lora.StrategyUniform
	tr, err := Transfer(base, snaps, model.ExamplesFrom(tasks.ED, markerDataset(rng, 20, "%", ""), nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tr.Fusion.Weights() {
		if w != 0.5 {
			t.Fatalf("uniform λ should remain 1/N = 0.5, got %v", tr.Fusion.Weights())
		}
	}
}

func TestSingleStrategyHasNoUpstreamPatches(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(9))
	sources := []Source{{Name: "a", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "%", ""), nil)}}
	snaps := ExtractPatches(base, sources, testOptions())
	opts := testOptions()
	opts.Strategy = lora.StrategySingle
	tr, err := BuildFusion(base, snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Fusion.Upstream) != 0 || len(tr.Fusion.Lambdas) != 0 {
		t.Fatal("single strategy must not attach upstream patches")
	}
	if tr.Fusion.Shared == nil {
		t.Fatal("single strategy still needs the fresh shared patch")
	}
}

func TestFewShotKeepsBackboneFixed(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(10))
	sources := []Source{{Name: "a", Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "%", ""), nil)}}
	snaps := ExtractPatches(base, sources, testOptions())
	tr, err := BuildFusion(base, snaps, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Model.Export()
	FewShotFineTune(tr, model.ExamplesFrom(tasks.ED, markerDataset(rng, 20, "%", ""), nil), testOptions())
	after := tr.Model.Export()
	for name, w := range before.Mats {
		for i := range w {
			if after.Mats[name][i] != w[i] {
				t.Fatalf("backbone weight %s changed during few-shot fine-tuning", name)
			}
		}
	}
	if after.Trust != before.Trust {
		t.Fatal("trust must stay fixed during SKC few-shot fine-tuning")
	}
}
