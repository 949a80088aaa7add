// Error detection on the Beer dataset: the clearest demonstration of the
// dataset-informed knowledge gap. The Beer table hides three latent rules a
// 20-example sample rarely teaches completely:
//
//   - ABV must be a bare decimal in (0, 1): "0.05%" is an error;
//   - IBU must be numeric: "nan" is an error;
//   - city names may be abbreviated ("NYC"-style) — NOT an error — but
//     misspellings are.
//
// The example shows the upstream model missing these cases, then the AKB
// loop discovering the rules from the few-shot data and error feedback.
//
// Run with: go run ./examples/error_detection
//
// The model adapts through eval.Zoo.TransferDataset, the path serve and the
// CLI take: `knowtrans transfer -dataset ED/Beer -seed 5 -scale 0.08` prints
// the same "with AKB searched knowledge" score and the same knowledge.
package main

import (
	"context"
	"fmt"

	"repro/internal/akb"
	"repro/internal/eval"
	"repro/internal/tasks"
)

func main() {
	const seed = 5
	z := eval.NewZoo(seed, 0.08)
	fmt.Println("== Error detection on Beer: closing the knowledge gap ==")

	beer := z.DownstreamByKey("ED/Beer")
	ad, err := z.TransferDataset(context.Background(), beer.Key(), eval.Size7B)
	if err != nil {
		panic(err)
	}

	spec := tasks.SpecFor(tasks.ED)
	fmt.Printf("\nfew-shot fine-tuned (SKC) alone:  %6.2f F1\n",
		akb.Evaluate(ad.Model, spec, beer.DS.Test, nil))
	fmt.Printf("with AKB searched knowledge:      %6.2f F1\n",
		akb.Evaluate(ad.Model, spec, beer.DS.Test, ad.Knowledge))

	if ad.Knowledge != nil {
		fmt.Printf("\nthe knowledge AKB found:\n  %s\n", tasks.RenderKnowledgeText(ad.Knowledge))
	}

	// Walk some interesting test cases: percent ABVs and abbreviated cities.
	fmt.Println("\nspot checks (prediction without knowledge -> with knowledge, gold):")
	shown := 0
	for _, in := range beer.DS.Test {
		interesting := in.Target == "abv" && in.Meta["error_type"] == "abv-percent" ||
			in.Target == "city" && in.GoldText() == tasks.AnswerNo && looksAbbreviated(in.FieldValue("city"))
		if !interesting || shown >= 6 {
			continue
		}
		shown++
		without := ad.Model.PredictWith(spec, in, nil)
		with := ad.Model.PredictWith(spec, in, ad.Knowledge)
		fmt.Printf("  %-22s %-14q  %-3s -> %-3s (gold %s)\n",
			in.Target+":", in.FieldValue(in.Target), without, with, in.GoldText())
	}
}

func looksAbbreviated(v string) bool {
	if len(v) == 0 {
		return false
	}
	upper := 0
	for i := 0; i < len(v); i++ {
		if v[i] >= 'A' && v[i] <= 'Z' {
			upper++
		}
	}
	return upper == len(v) || v[len(v)-1] == '.'
}
