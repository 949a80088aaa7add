// Quickstart: the complete KnowTrans pipeline end to end on one novel
// dataset, at laptop scale.
//
//  1. Pretrain a base DP-LM and turn it into an upstream DP-LLM by
//     multi-task SFT on the 12 upstream datasets (the Jellyfish analogue).
//  2. Extract one LoRA knowledge patch per upstream dataset from the base
//     model (SKC stage 1).
//  3. Transfer to the novel Walmart-Amazon entity-matching dataset with 20
//     labeled examples: SKC fusion + few-shot fine-tuning, then AKB
//     knowledge search.
//  4. Compare against plain few-shot fine-tuning of the upstream model.
//
// Run with: go run ./examples/quickstart
//
// The KnowTrans row adapts through eval.Zoo.TransferDataset, the path serve
// and the CLI take: `knowtrans transfer -dataset EM/Walmart-Amazon -seed 7
// -scale 0.08` prints the same KnowTrans score and searched knowledge.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/skc"
	"repro/internal/tasks"
)

func main() {
	const (
		seed  = 7
		scale = 0.08 // fraction of the paper's dataset sizes
	)
	fmt.Println("== KnowTrans quickstart ==")

	// The eval.Zoo builds and caches all shared artifacts; everything it
	// does can also be done by hand with the internal packages (see the
	// other examples).
	z := eval.NewZoo(seed, scale)

	fmt.Println("building base model + upstream DP-LLM (multi-task SFT on 12 upstream datasets)...")
	upstream := z.Upstream(eval.Size7B)

	fmt.Println("extracting 12 upstream knowledge patches (SKC stage 1)...")
	patches := z.Patches(eval.Size7B)
	fmt.Printf("  %d patches extracted, e.g. %q\n", len(patches), patches[0].Name)

	// The novel downstream dataset with 20 labeled examples.
	b := z.DownstreamByKey("EM/Walmart-Amazon")
	fewshot := b.DS.FewShot(rand.New(rand.NewSource(seed)), eval.FewShotN)
	fmt.Printf("downstream: %s (test=%d instances, few-shot=%d)\n", b.Key(), len(b.DS.Test), len(fewshot))

	// Baseline: plain few-shot fine-tuning of the upstream model.
	baseline := fineTune(upstream.Clone(), b.Kind, fewshot, seed)
	baseScore := akb.Evaluate(baseline, tasks.SpecFor(b.Kind), b.DS.Test, nil)

	// KnowTrans: SKC + AKB, from the same few-shot sample (the zoo draws it
	// from its seed).
	ad, err := z.TransferDataset(context.Background(), b.Key(), eval.Size7B)
	if err != nil {
		panic(err)
	}
	ktScore := akb.Evaluate(ad.Model, tasks.SpecFor(b.Kind), b.DS.Test, ad.Knowledge)

	fmt.Printf("\n%-34s %6.2f F1\n", "Jellyfish-7B + few-shot FT:", baseScore)
	fmt.Printf("%-34s %6.2f F1\n", "KnowTrans-7B (SKC + AKB):", ktScore)
	if ad.Fusion != nil {
		fmt.Println("\nlearned fusion weights λ (top 4):")
		printTopWeights(ad.Fusion.Weights(), patches, 4)
	}
	if ad.Knowledge != nil {
		fmt.Printf("\nsearched dataset-informed knowledge:\n  %s\n", tasks.RenderKnowledgeText(ad.Knowledge))
	}
}

func fineTune(m *model.Model, kind tasks.Kind, fewshot []*data.Instance, seed int64) *model.Model {
	tc := model.TrainConfig{Epochs: 8, LR: 0.02, Clip: 5, Seed: seed, WeightDecay: 1e-4}
	ps := m.Params()
	model.Train(m, model.ExamplesFrom(kind, fewshot, nil), tc, &ps)
	return m
}

func printTopWeights(weights []float64, patches []*skc.NamedSnapshot, k int) {
	type wp struct {
		name string
		w    float64
	}
	var all []wp
	for i, w := range weights {
		if i < len(patches) {
			all = append(all, wp{patches[i].Name, w})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].w > all[j].w })
	if len(all) > k {
		all = all[:k]
	}
	for _, x := range all {
		fmt.Printf("  λ(%-24s) = %+.3f\n", x.name, x.w)
	}
}
