package eval

import (
	"fmt"
	"strconv"

	"repro/internal/akb"
	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/oracle"
)

// --- Fig. 4: scalability --------------------------------------------------------

var fig4Datasets = []string{"DC/Rayyan", "SM/CMS", "EM/Walmart-Amazon", "AVE/AE-110k"}

// fig4Counts are the labeled-instance budgets of Fig. 4.
var fig4Counts = []int{20, 50, 100, 200, 1000, 2000}

func runFig4(z *Zoo, reps int) *Table {
	t := &Table{ID: "fig4", Title: "Scalability: Jellyfish-7B vs KnowTrans-7B as labeled instances grow",
		Columns: []string{"Instances", "Jellyfish-7B", "KnowTrans-7B"}}
	type point struct {
		b *datagen.Bundle
		n int
	}
	var points []point
	for _, key := range fig4Datasets {
		b := z.DownstreamByKey(key)
		prev := -1
		for _, n := range fig4Counts {
			if n > len(b.DS.Train) {
				// At reduced generation scale the pool may be smaller than
				// the paper's largest budgets; use what exists.
				n = len(b.DS.Train)
			}
			if n == prev {
				continue
			}
			prev = n
			points = append(points, point{b, n})
		}
	}
	methods := []string{MethodJellyfish, MethodKnowTrans}
	var jobs []cellJob[[]float64]
	for _, pt := range points {
		for _, name := range methods {
			jobs = append(jobs, methodCell(z, pt.b, cellKey(pt.b.Key(), name, strconv.Itoa(pt.n)), name, reps, pt.n,
				func() baselines.Method { return z.Method(name) }))
		}
	}
	scores := runCells(z, jobs)
	for i, pt := range points {
		t.AddRow(string(pt.b.Kind), fmt.Sprintf("%s@%d", pt.b.DS.Name, pt.n), map[string]float64{
			"Instances":    float64(pt.n),
			"Jellyfish-7B": scores[2*i][0],
			"KnowTrans-7B": scores[2*i+1][0],
		})
	}
	return t
}

// --- Fig. 5 / Fig. 6: backbones ---------------------------------------------------

// backboneVariants pairs each backbone with its KnowTrans-boosted version.
func backboneVariants(z *Zoo) []struct {
	column string
	method baselines.Method
} {
	return []struct {
		column string
		method baselines.Method
	}{
		{"Mistral-7B", z.Method(MethodMistral)},
		{"Mistral-7B+KT", z.KnowTransOnBase(Size7B)},
		{"Jellyfish-7B", z.Method(MethodJellyfish)},
		{"Jellyfish-7B+KT", z.KnowTransMethod(Size7B, true, true, lora.StrategyAdaptive)},
		{"Jellyfish-8B", &baselines.FineTuned{MethodName: "Jellyfish-8B", Backbone: upstreamClone(z, Size8B)}},
		{"Jellyfish-8B+KT", z.KnowTransMethod(Size8B, true, true, lora.StrategyAdaptive)},
		{"Jellyfish-13B", &baselines.FineTuned{MethodName: "Jellyfish-13B", Backbone: upstreamClone(z, Size13B)}},
		{"Jellyfish-13B+KT", z.KnowTransMethod(Size13B, true, true, lora.StrategyAdaptive)},
	}
}

func upstreamClone(z *Zoo, size Size) func() *model.Model {
	return func() *model.Model { return z.Upstream(size).Clone() }
}

func runBackboneFigure(z *Zoo, reps int, id, title string, keys []string) *Table {
	variants := backboneVariants(z)
	columns := make([]string, 0, len(variants))
	methods := make(map[string]baselines.Method, len(variants))
	for _, v := range variants {
		columns = append(columns, v.column)
		methods[v.column] = v.method
	}
	t := &Table{ID: id, Title: title, Columns: columns}
	return runGrid(z, t, bundlesByKey(z, keys), reps, func(col string) baselines.Method { return methods[col] })
}

func runFig5(z *Zoo, reps int) *Table {
	// Novel datasets: the ED/DI/SM/EM downstream sets.
	keys := []string{
		"ED/Flights", "ED/Rayyan", "ED/Beer",
		"DI/Flipkart", "DI/Phone", "SM/CMS",
		"EM/Abt-Buy", "EM/Walmart-Amazon",
	}
	return runBackboneFigure(z, reps, "fig5", "Backbones ± KnowTrans on novel datasets", keys)
}

func runFig6(z *Zoo, reps int) *Table {
	// Novel tasks: CTA, AVE, DC.
	keys := []string{"CTA/SOTAB", "AVE/AE-110k", "AVE/OA-mine", "DC/Rayyan", "DC/Beer"}
	return runBackboneFigure(z, reps, "fig6", "Backbones ± KnowTrans on novel tasks", keys)
}

// --- Fig. 7: refinement rounds -----------------------------------------------------

var fig7Datasets = []string{"ED/Rayyan", "AVE/AE-110k"}

func runFig7(z *Zoo, reps int) *Table {
	t := &Table{ID: "fig7", Title: "Effect of refinement rounds on eval and test scores (KnowTrans-7B)",
		Columns: []string{"Round", "Eval", "Test"}}
	const rounds = 7
	bundles := bundlesByKey(z, fig7Datasets)
	var jobs []cellJob[[]float64]
	for _, b := range bundles {
		// A labeled pool of twice the budget, split into disjoint fine-tuning
		// and validation halves (the paper's Section VII-A train/validation
		// split): a validation set the model did not memorize is what lets the
		// eval curve climb across refinement rounds. The cell's values are
		// the eval curve, then the test curve.
		jobs = append(jobs, repCell(z, b, cellKey(b.Key(), "fig7"), reps, 2*FewShotN, func(ctx *baselines.AdaptContext) []float64 {
			half := len(ctx.FewShot) / 2
			valHalf := ctx.FewShot[half:]
			ctx.FewShot = ctx.FewShot[:half]
			// Fine-tune with SKC but defer AKB: the search is run manually
			// with a test probe and an extended round budget.
			ad, err := z.AdaptKnowTrans(ctx, Size7B, true, false)
			if err != nil {
				panic(err)
			}
			probe := b.DS.Test
			if len(probe) > 300 {
				probe = probe[:300]
			}
			cfg := akb.DefaultConfig(ctx.Seed)
			cfg.Iterations = rounds
			res := z.searchAKB(ad.Model, z.Oracle(ctx.Seed, oracle.PaperTemperature), b.Kind, valHalf, probe, cfg, ctx.Seed, ctx.Rec)
			curves := make([]float64, 2*rounds)
			last := akb.Step{TestScore: -1}
			for r := 0; r < rounds; r++ {
				step := last
				for _, st := range res.Steps {
					if st.Iter == r {
						step = st
					}
				}
				// After convergence the curve stays flat at the last value.
				if step.TestScore >= 0 || r == 0 {
					last = step
				}
				curves[r], curves[rounds+r] = last.EvalScore, last.TestScore
			}
			return curves
		}))
	}
	results := runCells(z, jobs)
	for i, b := range bundles {
		for r := 0; r < rounds; r++ {
			t.AddRow(string(b.Kind), fmt.Sprintf("%s@round%d", b.DS.Name, r), map[string]float64{
				"Round": float64(r),
				"Eval":  results[i][r],
				"Test":  results[i][rounds+r],
			})
		}
	}
	return t
}
