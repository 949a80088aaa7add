// Entity matching walk-through on the Walmart-Amazon-style product dataset:
// builds the pipeline by hand from the internal packages (no eval.Zoo), so
// every stage of Fig. 2 is visible — upstream SFT, cross-model patch
// extraction, λ-weighted fusion, few-shot fine-tuning, and AKB search — and
// prints what the framework actually learned: the fusion weights λ over the
// upstream patch library and the searched knowledge.
//
// Run with: go run ./examples/entity_matching
//
// No `knowtrans` command prints these numbers: nothing here comes from
// eval.Zoo (own corpus sizes, learning rates and seeds), so the harness's
// oracle seed rule (eval.Zoo.Oracle) has nothing to agree with. For the
// zoo-built equivalent see examples/quickstart.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/akb"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/skc"
	"repro/internal/tasks"
)

func main() {
	const seed = 11
	fmt.Println("== Entity matching with KnowTrans ==")

	// 1. Base model (the Mistral-7B analogue), pretrained on a general
	//    corpus so it has broad priors but no DP specialization.
	base := model.New(model.Config{Name: "base", Hidden: model.Hidden7B, Seed: seed})
	pretrain := toExamples(datagen.GeneralCorpus(seed, 3000, false))
	ps := base.Params()
	model.Train(base, pretrain, model.TrainConfig{Epochs: 2, LR: 0.02, Clip: 5, Seed: seed}, &ps)

	// 2. Upstream DP-LLM: multi-task SFT over the 12 upstream datasets.
	upstreamData := datagen.Upstream(seed, 0.1)
	upstream := base.Clone()
	var sftExamples []model.TrainExample
	for _, b := range upstreamData {
		sftExamples = append(sftExamples, model.ExamplesFrom(b.Kind, b.DS.Train, nil)...)
	}
	ps = upstream.Params()
	model.Train(upstream, sftExamples, model.TrainConfig{Epochs: 2, LR: 0.01, Clip: 5, Seed: seed + 1}, &ps)
	fmt.Printf("upstream DP-LLM trained on %d examples across %d datasets\n", len(sftExamples), len(upstreamData))

	// 3. SKC stage 1: extract a knowledge patch per upstream dataset from
	//    the BASE model (cross-model low-rank parameterization).
	var sources []skc.Source
	for _, b := range upstreamData {
		sources = append(sources, skc.Source{Name: b.Key(), Examples: model.ExamplesFrom(b.Kind, b.DS.Train, nil)})
	}
	patches := skc.ExtractPatches(base, sources, skc.Options{Seed: seed})
	fmt.Printf("extracted %d knowledge patches\n", len(patches))

	// 4. The novel dataset: Walmart-Amazon product matching, 20 labels.
	wa := datagen.ByKey("EM/Walmart-Amazon", seed, 0.1)
	fewshot := wa.DS.FewShot(rand.New(rand.NewSource(seed)), 20)

	kt := &core.KnowTrans{Upstream: upstream, Patches: patches, UseSKC: true, UseAKB: true, Oracle: oracle.New(seed)}
	ad, err := kt.Transfer(context.Background(), tasks.EM, fewshot, seed)
	if err != nil {
		panic(err)
	}

	// What did SKC decide to reuse? The λ weights tell us which upstream
	// patches contributed; patches whose knowledge conflicts with the
	// downstream rules are pushed down.
	fmt.Println("\nfusion weights λ after few-shot fine-tuning:")
	type wp struct {
		name string
		w    float64
	}
	var all []wp
	for i, w := range ad.Fusion.Weights() {
		all = append(all, wp{patches[i].Name, w})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].w > all[j].w })
	for _, x := range all {
		fmt.Printf("  λ(%-26s) = %+.3f\n", x.name, x.w)
	}

	// What did AKB discover about the dataset?
	if ad.Knowledge != nil {
		fmt.Printf("\nsearched knowledge (validation score %.1f):\n  %s\n",
			ad.AKBResult.BestScore, tasks.RenderKnowledgeText(ad.Knowledge))
	} else {
		fmt.Println("\nAKB concluded no extra knowledge helps on this dataset")
	}

	// Final comparison on the held-out test set.
	spec := tasks.SpecFor(tasks.EM)
	plain := upstream.Clone()
	tc := model.TrainConfig{Epochs: 10, LR: 0.02, Clip: 5, Seed: seed, WeightDecay: 1e-4, BatchSize: 4}
	pps := plain.Params()
	model.Train(plain, model.ExamplesFrom(tasks.EM, fewshot, nil), tc, &pps)
	fmt.Printf("\n%-30s %6.2f F1\n", "Jellyfish-style few-shot FT:", akb.Evaluate(plain, spec, wa.DS.Test, nil))
	fmt.Printf("%-30s %6.2f F1\n", "KnowTrans:", akb.Evaluate(ad.Model, spec, wa.DS.Test, ad.Knowledge))

	// A peek at one prediction with its knowledge-augmented prompt.
	in := wa.DS.Test[0]
	fmt.Printf("\nexample prompt:\n%s\n-> prediction: %s (gold: %s)\n", tasks.RenderPrompt(spec, in, ad.Knowledge), ad.Predict(context.Background(), in), in.GoldText())
}

func toExamples(corpus []datagen.LabeledExample) []model.TrainExample {
	out := make([]model.TrainExample, 0, len(corpus))
	for _, ex := range corpus {
		out = append(out, model.TrainExample{Spec: ex.Kind.Spec(), Instance: ex.Instance, Knowledge: ex.Knowledge})
	}
	return out
}
