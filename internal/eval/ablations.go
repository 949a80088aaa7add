package eval

import (
	"repro/internal/akb"
	"repro/internal/baselines"
	"repro/internal/tasks"
)

// Substrate ablations: experiments beyond the paper's own tables that
// isolate the design choices DESIGN.md documents for this reproduction.
// They answer "which of the substrate's mechanisms carry the KnowTrans
// effects?" and run as `knowtrans experiment ablate-substrate` or
// BenchmarkAblateSubstrate.

// ablationDatasets is a representative slice: one knowledge-gap-heavy ED
// set, one pair task, one extraction task.
var ablationDatasets = []string{"ED/Beer", "EM/Walmart-Amazon", "DI/Flipkart"}

// FullRegistry returns the paper experiments plus the reproduction's own
// ablations, which `experiment all` leaves out.
func FullRegistry() []Experiment {
	return append(Registry(),
		Experiment{"ablate-substrate", "Substrate ablations: trust head, rule channel, text channel (reproduction-specific)", runAblateSubstrate},
		Experiment{"ablate-oracle", "Oracle ablations: search temperature (reproduction-specific)", runAblateOracle},
	)
}

// ExperimentByID searches the full registry.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range FullRegistry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runAblateSubstrate transfers KnowTrans to each ablation dataset and then
// re-scores the same adapted model with pieces of the knowledge channel
// disabled:
//
//   - "full": searched knowledge as-is,
//   - "no-rules": rules stripped (text + serialization directives remain) —
//     isolates the executable-rule channel,
//   - "no-text": prose stripped (rules + directives remain) — isolates the
//     prompt-text channel,
//   - "trust-off": the model's rule-trust scalar forced to 0 — shows that
//     hints act only through the learned instruction-following pathway,
//   - "none": no knowledge at all.
func runAblateSubstrate(z *Zoo, reps int) *Table {
	t := &Table{ID: "ablate-substrate", Title: "Knowledge-channel ablations on the adapted model",
		Columns: []string{"none", "trust-off", "no-rules", "no-text", "full"}}
	return runAblation(z, t, "ablate", reps, func(ctx *baselines.AdaptContext) []float64 {
		b := ctx.Bundle
		ad, err := z.AdaptKnowTrans(ctx, Size7B, true, true)
		if err != nil {
			panic(err)
		}
		spec := tasks.SpecFor(b.Kind)
		k := ad.Knowledge
		score := func(k *tasks.Knowledge) float64 {
			return akb.Evaluate(ad.Model, spec, b.DS.Test, k)
		}
		none, full := score(nil), score(k)
		noRules, noText := none, none
		if k != nil {
			stripped := k.Clone()
			stripped.Rules = nil
			noRules = score(stripped)
			stripped = k.Clone()
			stripped.Text = ""
			noText = score(stripped)
		}
		// ad.Model is this cell's private adapted model, with a trust scalar
		// of its own, so the toggle never races with other cells.
		trust := ad.Model.Trust.Val
		ad.Model.Trust.Val = 0
		trustOff := score(k)
		ad.Model.Trust.Val = trust
		return []float64{none, trustOff, noRules, noText, full}
	})
}

// runAblateOracle compares AKB outcomes on one SKC fine-tune per cell:
//
//   - "no-AKB": no knowledge at all,
//   - "temp-0": knowledge searched with a temperature-0 (deterministic
//     best-effort) oracle,
//   - "temp-0.9": knowledge searched with the paper's temperature-0.9 oracle.
//
// Both oracles hold the same world lexicon (datagen.WorldLexicon); no column
// varies it.
func runAblateOracle(z *Zoo, reps int) *Table {
	t := &Table{ID: "ablate-oracle", Title: "AKB oracle ablations (KnowTrans-7B)",
		Columns: []string{"no-AKB", "temp-0", "temp-0.9"}}
	return runAblation(z, t, "ablateo", reps, func(ctx *baselines.AdaptContext) []float64 {
		b := ctx.Bundle
		// One SKC fine-tune shared by all oracle variants.
		ad, err := z.AdaptKnowTrans(ctx, Size7B, true, false)
		if err != nil {
			panic(err)
		}
		spec := tasks.SpecFor(b.Kind)
		cells := []float64{akb.Evaluate(ad.Model, spec, b.DS.Test, nil)}
		for _, temp := range []float64{0, 0.9} {
			res := z.searchAKB(ad.Model, z.Oracle(ctx.Seed, temp),
				b.Kind, ctx.FewShot, nil, akb.DefaultConfig(ctx.Seed), ctx.Seed, ctx.Rec)
			cells = append(cells, akb.Evaluate(ad.Model, spec, b.DS.Test, res.Best))
		}
		return cells
	})
}

// runAblation fills t with one row per ablation dataset: each row's cells
// are measure's values in column order, averaged over reps repetitions at
// the paper's few-shot budget on the zoo's worker pool; a row's seed
// stream is cellKey(dataset, tag). The result carries the averages.
func runAblation(z *Zoo, t *Table, tag string, reps int, measure func(*baselines.AdaptContext) []float64) *Table {
	bundles := bundlesByKey(z, ablationDatasets)
	jobs := make([]cellJob[[]float64], len(bundles))
	for i, b := range bundles {
		jobs[i] = repCell(z, b, cellKey(b.Key(), tag), reps, FewShotN, measure)
	}
	for i, vals := range runCells(z, jobs) {
		cells := make(map[string]float64, len(t.Columns))
		for j, col := range t.Columns {
			cells[col] = vals[j]
		}
		t.AddRow(string(bundles[i].Kind), bundles[i].DS.Name, cells)
	}
	return t.WithAverages()
}
