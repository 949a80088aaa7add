// Knowledge search, step by step: runs the AKB loop (Algorithm 2) alone on
// the Rayyan error-detection dataset and prints every iteration —
// candidate pool growth, the best validation score per round, the error
// feedback text, and the final searched knowledge — the trace behind
// Fig. 7's curves.
//
// Run with: go run ./examples/knowledge_search
//
// Model, few-shot sample and oracle are the ones `knowtrans transfer -dataset
// ED/Rayyan -seed 3 -scale 0.08` searches with (eval.Zoo.AdaptKnowTrans and
// eval.Zoo.Oracle); that command runs the default round budget and no test
// probe, this one 5 rounds, so its round-by-round eval scores are a prefix of
// these.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/akb"
	"repro/internal/baselines"
	"repro/internal/eval"
	"repro/internal/oracle"
	"repro/internal/tasks"
)

func main() {
	const seed = 3
	z := eval.NewZoo(seed, 0.08)
	fmt.Println("== AKB knowledge search on ED/Rayyan ==")

	b := z.DownstreamByKey("ED/Rayyan")
	fewshot := b.DS.FewShot(rand.New(rand.NewSource(seed)), eval.FewShotN)

	// A fine-tuned model WITHOUT knowledge: the 𝓜' the search queries.
	ad, err := z.AdaptKnowTrans(&baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: seed}, eval.Size7B, true, false)
	if err != nil {
		panic(err)
	}

	probe := b.DS.Test
	if len(probe) > 200 {
		probe = probe[:200]
	}
	cfg := akb.DefaultConfig(seed)
	cfg.Iterations = 5
	gpt := z.Oracle(seed, oracle.PaperTemperature)
	res := akb.SearchFallible(context.Background(), ad.Model, akb.AsFallible(gpt), tasks.ED, fewshot, probe, cfg)

	fmt.Println("\nsearch trace:")
	for _, s := range res.Steps {
		fmt.Printf("  round %d: pool=%2d  eval=%6.2f  test=%6.2f\n", s.Iter, s.PoolSize, s.EvalScore, s.TestScore)
	}
	if len(res.Feedbacks) > 0 {
		fmt.Printf("\nfirst error feedback from the oracle:\n%s\n", res.Feedbacks[0])
	}
	fmt.Printf("\nfinal knowledge (eval %.2f):\n  %s\n", res.BestScore, tasks.RenderKnowledgeText(res.Best))
	fmt.Printf("\noracle token usage: %d calls, %d input tokens, %d output tokens\n",
		gpt.Tokens.Calls, gpt.Tokens.Input, gpt.Tokens.Output)
	fmt.Printf("\ntest score without knowledge: %6.2f\n", akb.Evaluate(ad.Model, tasks.SpecFor(tasks.ED), b.DS.Test, nil))
	fmt.Printf("test score with knowledge:    %6.2f\n", akb.Evaluate(ad.Model, tasks.SpecFor(tasks.ED), b.DS.Test, res.Best))
}
