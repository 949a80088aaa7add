package baselines

import (
	"context"
	"sort"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/text"
)

// ICL adapts a frozen backbone with in-context learning: the iclK most
// similar few-shot demonstrations are serialized into the prompt, and their
// labels vote on the candidates with similarity weights — the
// retrieval-augmented realization of demonstration conditioning in a
// bag-of-features substrate.
// This is the protocol behind Jellyfish-ICL and the GPT tiers.
type ICL struct {
	MethodName string
	// Backbone returns the model each adaptation shares (model.Model.Share):
	// read in place, never written.
	Backbone func() *model.Model
	// VoteWeight scales the neighbor-vote score bonus. Wider models rely on
	// demonstrations more effectively; the zoo sets this per tier.
	VoteWeight float64
}

// iclK is how many demonstrations each query retrieves.
const iclK = 10

// Name implements Method.
func (c *ICL) Name() string { return c.MethodName }

// Adapt implements Method. No gradient updates happen: the model is used
// frozen, exactly like an API model.
func (c *ICL) Adapt(ctx *AdaptContext) Predictor {
	m := c.Backbone().Share()
	if ctx.Rec != nil {
		m.Rec = ctx.Rec
	}
	p := &iclPredictor{
		m:      m,
		enc:    text.NewEncoder(m.Hasher),
		spec:   ctx.Bundle.Spec(),
		weight: c.VoteWeight,
	}
	for _, in := range ctx.FewShot {
		p.demos = append(p.demos, demo{
			in:  in,
			vec: recordVec(p.enc, in),
			ans: in.GoldText(),
		})
	}
	return p
}

type demo struct {
	in  *data.Instance
	vec *tensor.Sparse
	ans string
}

type iclPredictor struct {
	m      *model.Model
	enc    *text.Encoder // retrieval-side hashing; the model keeps its own
	spec   tasks.Spec
	weight float64
	demos  []demo
}

// neighbor is one retrieved demonstration with its similarity to the query.
type neighbor struct {
	d   demo
	sim float64
}

// neighbors returns the iclK demonstrations most similar to in, best first.
func (p *iclPredictor) neighbors(in *data.Instance) []neighbor {
	q := recordVec(p.enc, in)
	ns := make([]neighbor, 0, len(p.demos))
	for _, d := range p.demos {
		ns = append(ns, neighbor{d, q.Dot(d.vec)})
	}
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].sim > ns[j].sim })
	if len(ns) > iclK {
		ns = ns[:iclK]
	}
	return ns
}

// PredictBatch implements Predictor, a row at a time: retrieval is per query.
func (p *iclPredictor) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	return rowPredictor(p.Predict).PredictBatch(ctx, ins)
}

// Predict builds the demonstration-augmented prompt and combines model
// scores with similarity-weighted neighbor votes.
func (p *iclPredictor) Predict(in *data.Instance) string {
	return p.predict(in, p.neighbors(in))
}

// predict answers in given its retrieved neighbors.
func (p *iclPredictor) predict(in *data.Instance, neighbors []neighbor) string {
	var ex tasks.Example
	tasks.BuildExampleInto(&ex, p.spec, in, nil)
	// Serialize demonstrations into the prompt. They are hashed into an
	// isolated namespace at low weight: in a transformer the demonstrations
	// occupy context without overwriting the query representation, and the
	// bag encoder must not let ten demo records drown the actual record.
	for _, n := range neighbors {
		ex.Segments = append(ex.Segments, text.Segment{
			Field:    "demo",
			Text:     data.RenderRecord(n.d.in.Fields) + " -> " + n.d.ans,
			Weight:   0.04,
			Isolated: true,
		})
	}
	// The votes are added in place, to the model's score scratch.
	scores := p.m.ScoresBatch([]*tasks.Example{&ex})[0]
	// ... and vote on candidates.
	for _, n := range neighbors {
		if n.sim <= 0 {
			continue
		}
		for i, c := range ex.Candidates {
			if equalFold(c, n.d.ans) {
				scores[i] += p.weight * n.sim
			}
		}
	}
	best, _ := model.Argmax(scores)
	return ex.Candidates[best]
}

// PromptTokens reports the token counts of one demonstration-augmented
// prompt and of its answer, used by the Table III cost analysis. One
// retrieval serves both.
func (p *iclPredictor) PromptTokens(in *data.Instance) (input, output int) {
	neighbors := p.neighbors(in)
	prompt := tasks.RenderPrompt(p.spec, in, nil)
	for _, n := range neighbors {
		prompt += "\nExample: " + data.RenderRecord(n.d.in.Fields) + " -> " + n.d.ans
	}
	return text.CountTokens(prompt), text.CountTokens(p.predict(in, neighbors))
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
