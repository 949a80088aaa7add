package eval

import (
	"repro/internal/akb"
	"repro/internal/baselines"
	"repro/internal/obs"
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
		Experiment{"ablate-oracle", "Oracle ablations: temperature and world lexicon (reproduction-specific)", runAblateOracle},
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
	columns := []string{"none", "trust-off", "no-rules", "no-text", "full"}
	t := &Table{ID: "ablate-substrate", Title: "Knowledge-channel ablations on the adapted model", Columns: columns}
	bundles := bundlesByKey(z, ablationDatasets)
	var jobs []cellJob[map[string]float64]
	for _, b := range bundles {
		key := cellKey(b.Key(), "ablate")
		jobs = append(jobs, cellJob[map[string]float64]{
			Label: key,
			Run: func(rec *obs.Recorder) map[string]float64 {
				cells := map[string]float64{}
				for rep := 0; rep < reps; rep++ {
					fewshot := b.DS.FewShot(fewShotRNG(z, key, rep), FewShotN)
					ctx := &baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: repSeed(z, key, rep), Rec: rec}
					ad, err := z.AdaptKnowTrans(ctx, Size7B, true, true)
					if err != nil {
						panic(err)
					}
					spec := tasks.SpecFor(b.Kind)
					k := ad.Knowledge
					score := func(k *tasks.Knowledge) float64 {
						return akb.Evaluate(ad.Model, spec, b.DS.Test, k)
					}
					cells["none"] += score(nil)
					cells["full"] += score(k)
					if k != nil {
						noRules := k.Clone()
						noRules.Rules = nil
						cells["no-rules"] += score(noRules)
						noText := k.Clone()
						noText.Text = ""
						cells["no-text"] += score(noText)
					} else {
						cells["no-rules"] += score(nil)
						cells["no-text"] += score(nil)
					}
					// ad.Model is this cell's private adapted model, with a
					// trust scalar of its own, so the toggle never races with
					// other cells.
					trust := ad.Model.Trust.Val
					ad.Model.Trust.Val = 0
					cells["trust-off"] += score(k)
					ad.Model.Trust.Val = trust
				}
				for _, c := range columns {
					cells[c] /= float64(reps)
				}
				return cells
			},
		})
	}
	results := runCells(z, jobs)
	for i, b := range bundles {
		t.AddRow(string(b.Kind), b.DS.Name, results[i])
	}
	return t.WithAverages()
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
	columns := []string{"no-AKB", "temp-0", "temp-0.9"}
	t := &Table{ID: "ablate-oracle", Title: "AKB oracle ablations (KnowTrans-7B)", Columns: columns}
	bundles := bundlesByKey(z, ablationDatasets)
	var jobs []cellJob[map[string]float64]
	for _, b := range bundles {
		key := cellKey(b.Key(), "ablateo")
		jobs = append(jobs, cellJob[map[string]float64]{
			Label: key,
			Run: func(rec *obs.Recorder) map[string]float64 {
				cells := map[string]float64{}
				for rep := 0; rep < reps; rep++ {
					fewshot := b.DS.FewShot(fewShotRNG(z, key, rep), FewShotN)
					ctx := &baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: repSeed(z, key, rep), Rec: rec}
					// One SKC fine-tune shared by all oracle variants.
					ad, err := z.AdaptKnowTrans(ctx, Size7B, true, false)
					if err != nil {
						panic(err)
					}
					spec := tasks.SpecFor(b.Kind)
					cells["no-AKB"] += akb.Evaluate(ad.Model, spec, b.DS.Test, nil)
					for _, v := range []struct {
						col  string
						temp float64
					}{{"temp-0", 0}, {"temp-0.9", 0.9}} {
						res := z.searchAKB(ad.Model, z.Oracle(ctx.Seed, v.temp),
							b.Kind, fewshot, nil, akb.DefaultConfig(ctx.Seed), ctx.Seed, rec)
						cells[v.col] += akb.Evaluate(ad.Model, spec, b.DS.Test, res.Best)
					}
				}
				for _, c := range columns {
					cells[c] /= float64(reps)
				}
				return cells
			},
		})
	}
	results := runCells(z, jobs)
	for i, b := range bundles {
		t.AddRow(string(b.Kind), b.DS.Name, results[i])
	}
	return t.WithAverages()
}
