package eval

import (
	"context"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/tasks"
	"repro/internal/text"
)

// pricing is per-1K-token API cost at the paper's model versions (OpenAI
// list prices at the time of the paper's experiments): gpt-3.5-turbo-1106,
// gpt-4-0613, gpt-4o-2024-08-06. KnowTrans runs self-hosted; its entry
// models amortized A40 serving cost per 1K tokens.
type pricing struct {
	inPer1K  float64
	outPer1K float64
}

var apiPrices = map[string]pricing{
	MethodGPT35:     {0.001, 0.002},
	MethodGPT4:      {0.03, 0.06},
	MethodGPT4o:     {0.0025, 0.010},
	MethodKnowTrans: {0.0015, 0.0015}, // modeled local serving cost
}

// costSampleN caps the number of test instances used to estimate per-
// instance token counts.
const costSampleN = 40

// promptTokenCounter is satisfied by the ICL predictor.
type promptTokenCounter interface {
	PromptTokens(in *data.Instance) (input, output int)
}

// runTable3 measures the real prompts each method builds on a
// representative dataset (EM/Walmart-Amazon, a mid-length record task) and
// prices them. The GPT tiers pay for 10 in-context demonstrations per
// instance; KnowTrans carries its few-shot examples in parameters and only
// pays for the record plus the searched knowledge text.
func runTable3(z *Zoo, _ int) *Table {
	t := &Table{ID: "table3", Title: "Input tokens, output tokens and cost per instance",
		Columns: []string{"Input Tokens", "Output Tokens", "Price ($/instance)"}}
	b := z.DownstreamByKey("EM/Walmart-Amazon")
	sample := b.DS.Test
	if len(sample) > costSampleN {
		sample = sample[:costSampleN]
	}
	fewshot := b.DS.FewShot(fewShotRNG(z, cellKey(b.Key(), "cost"), 0), FewShotN)
	seed := repSeed(z, cellKey(b.Key(), "cost"), 0)

	for _, name := range []string{MethodGPT35, MethodGPT4o, MethodGPT4} {
		m := z.Method(name)
		pred := m.Adapt(&baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: seed})
		icl := pred.(promptTokenCounter)
		var inSum, outSum int
		for _, in := range sample {
			i, o := icl.PromptTokens(in)
			inSum += i
			outSum += o
		}
		addCostRow(t, name, inSum, outSum, len(sample))
	}

	// KnowTrans: the transferred model's real prompt (record + searched
	// knowledge), answers as output.
	kt := z.KnowTransMethod(Size7B, true, true, lora.StrategyAdaptive)
	pred := kt.Adapt(&baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: seed})
	k := pred.(*core.Adapted).Knowledge
	spec := tasks.SpecFor(b.Kind)
	var inSum, outSum int
	for i, ans := range pred.PredictBatch(context.Background(), sample) {
		inSum += text.CountTokens(tasks.RenderPrompt(spec, sample[i], k))
		outSum += text.CountTokens(ans)
	}
	addCostRow(t, MethodKnowTrans, inSum, outSum, len(sample))
	return t
}

func addCostRow(t *Table, name string, inSum, outSum, n int) {
	p := apiPrices[name]
	inAvg := float64(inSum) / float64(n)
	outAvg := float64(outSum) / float64(n)
	t.AddRow("", name, map[string]float64{
		"Input Tokens":       inAvg,
		"Output Tokens":      outAvg,
		"Price ($/instance)": (inAvg*p.inPer1K + outAvg*p.outPer1K) / 1000,
	})
}
