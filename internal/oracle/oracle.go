// Package oracle implements the simulated closed-source LLM 𝓜_gpt that the
// AKB component queries (the paper uses gpt-4o-2024-08-06 at temperature
// 0.9). The simulation is a deterministic-given-seed rule-induction engine:
// from labeled demonstrations it derives candidate dataset-informed
// knowledge (structured rules + serialization directives + prose), from
// error cases it produces feedback and refined knowledge. Like a sampled
// LLM, it is stochastic (temperature controls how much each candidate
// deviates from the best-effort induction) and fallible (rules are induced
// from 10–20 examples and carry their empirical precision, not ground
// truth).
//
// An implementation backed by a real LLM API satisfies the same
// akb.Oracle interface; see DESIGN.md for the substitution rationale.
package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/tasks"
	"repro/internal/text"
)

// GPT is the simulated closed-source model. It is stateful across one AKB
// search the way a chat session is: demonstrations shown at Generation time
// and error cases shown at Feedback/Refinement time all stay in context, so
// later refinements reason over the accumulated evidence.
type GPT struct {
	rng         *rand.Rand
	temperature float64
	seen        []*data.Instance
	seenIDs     map[*data.Instance]bool

	// Tokens tallies the prompt/response tokens the oracle would consume if
	// backed by a metered API — used by the cost analysis (Table III).
	Tokens TokenUsage
}

// remember adds instances to the session context.
func (g *GPT) remember(ins ...*data.Instance) {
	if g.seenIDs == nil {
		g.seenIDs = map[*data.Instance]bool{}
	}
	for _, in := range ins {
		if !g.seenIDs[in] {
			g.seenIDs[in] = true
			g.seen = append(g.seen, in)
		}
	}
}

// TokenUsage counts metered tokens.
type TokenUsage struct {
	Input  int
	Output int
	Calls  int
}

// PaperTemperature is the sampling temperature of the paper's gpt-4o runs.
const PaperTemperature = 0.9

// New returns a simulated GPT with the paper's temperature.
func New(seed int64) *GPT {
	return NewWithTemperature(seed, PaperTemperature)
}

// NewWithTemperature returns a simulated GPT with a custom temperature in
// [0, 1]; 0 always emits the best-effort induction.
func NewWithTemperature(seed int64, temperature float64) *GPT {
	return &GPT{rng: rand.New(rand.NewSource(seed)), temperature: temperature}
}

var _ akb.Oracle = (*GPT)(nil)

// Generate implements Eq. 7: from the generation prompt + demonstrations it
// returns a pool of knowledge candidates of varying quality.
func (g *GPT) Generate(req akb.GenerateRequest) []*tasks.Knowledge {
	g.meter(renderGeneratePrompt(req))
	g.remember(req.Examples...)
	full := induce(req.Kind, req.Examples)
	n := req.PoolSize
	if n <= 0 {
		n = 4
	}
	out := make([]*tasks.Knowledge, 0, n)
	for i := 0; i < n; i++ {
		// Every sample is temperature-perturbed (dropped rules, reweighted
		// confidences): a sampled LLM's first knowledge draft is rough, and
		// the Evaluation/Feedback/Refinement loop is what polishes it
		// (Section VI-B). At temperature 0 the perturbation vanishes and
		// the best-effort induction is returned.
		k := g.assemble(full, g.temperature > 0)
		g.meterOut(tasks.RenderKnowledgeText(k))
		out = append(out, k)
	}
	return out
}

// Feedback implements Eq. 9: a prose analysis of the error cases under the
// current knowledge, following the feedback prompt of Listing 3.
func (g *GPT) Feedback(req akb.FeedbackRequest) string {
	g.meter(renderFeedbackPrompt(req))
	var sb strings.Builder
	sb.WriteString("Analysis of the wrong examples:\n")
	for i, e := range req.Errors {
		fmt.Fprintf(&sb, "Wrong example <%d>: the model answered %q but the correct label is %q.",
			i+1, e.Predicted, e.Instance.GoldText())
		if e.Instance.Target != "" {
			fmt.Fprintf(&sb, " The %s value is %q.", e.Instance.Target, e.Instance.FieldValue(e.Instance.Target))
		}
		var blamed []string
		if req.Knowledge != nil {
			for _, r := range req.Knowledge.Rules {
				if misfires(r, e) {
					blamed = append(blamed, condNote(r.Cond))
				}
			}
		}
		if len(blamed) > 0 {
			sb.WriteString(" The current knowledge misled the model here (" + strings.Join(blamed, "; ") + ").")
		} else {
			sb.WriteString(" The current knowledge does not cover this case.")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("Aspects to improve: cover the uncovered error patterns and remove or down-weight the misleading statements.")
	fb := sb.String()
	g.meterOut(fb)
	return fb
}

// Refine implements Eq. 10/11: evolve the current knowledge using the error
// subset, the feedback, and the full trajectory. New rules are induced from
// the errors (with their gold labels); rules that actively misled the model
// are dropped or down-weighted.
func (g *GPT) Refine(req akb.RefineRequest) []*tasks.Knowledge {
	g.meter(renderRefinePrompt(req))
	// Induce corrective rules over everything in the session context: the
	// generation demos plus every error case seen so far. Evidence
	// accumulates across rounds, which is what makes refinement converge
	// (Fig. 7) instead of thrashing on 4-example slices.
	g.remember(instancesOf(req.Errors)...)
	corrective := induce(req.Kind, g.seen)

	// Trajectory awareness (Eq. 11): avoid re-adding rules that already
	// appear in past candidates AND never scored well — approximated by not
	// duplicating rules present in the current best knowledge.
	existing := map[string]bool{}
	base := req.Knowledge.Clone()
	if base == nil {
		base = &tasks.Knowledge{}
	}
	for _, r := range base.Rules {
		existing[ruleKey(r)] = true
	}

	// Drop rules that misfired on the sampled errors.
	var keptRules []tasks.Rule
	for _, r := range base.Rules {
		bad := 0
		for _, e := range req.Errors {
			if misfires(r, e) {
				bad++
			}
		}
		switch {
		case bad == 0:
			keptRules = append(keptRules, r)
		case bad == 1 && g.rng.Float64() > g.temperature*0.5:
			// Sometimes keep a once-misfiring rule with reduced confidence.
			r.Weight *= 0.5
			keptRules = append(keptRules, r)
		}
	}
	base.Rules = keptRules

	// Add corrective rules (capped), preferring high-evidence ones.
	added := 0
	for _, s := range corrective.rules {
		if existing[ruleKey(s.rule)] || added >= 8 {
			continue
		}
		base.Rules = append(base.Rules, s.rule)
		existing[ruleKey(s.rule)] = true
		added++
	}
	for _, d := range corrective.serial {
		dup := false
		for _, e := range base.Serial {
			if e == d {
				dup = true
			}
		}
		if !dup {
			base.Serial = append(base.Serial, d)
		}
	}
	base.Text = g.compose(append(corrective.notes, base.Text))

	out := []*tasks.Knowledge{base}
	// A second, more aggressive variation at high temperature.
	if g.temperature > 0.5 {
		variant := base.Clone()
		variant.Rules = g.dropSome(variant.Rules, 0.25)
		out = append(out, variant)
	}
	for _, k := range out {
		g.meterOut(tasks.RenderKnowledgeText(k))
	}
	return out
}

// assemble turns an induction result into one knowledge candidate; perturb
// applies temperature noise.
func (g *GPT) assemble(ind induced, perturb bool) *tasks.Knowledge {
	k := &tasks.Knowledge{}
	for _, s := range ind.rules {
		r := s.rule
		if perturb {
			// A sampled draft articulates only part of what the examples
			// show (≈half the rules at the paper's temperature 0.9); the
			// refinement loop recovers the rest from error feedback.
			if g.rng.Float64() < g.temperature*0.55 {
				continue // dropped from this sample
			}
			r.Weight *= 0.7 + g.rng.Float64()*0.6
			if r.Weight > 1 {
				r.Weight = 1
			}
		}
		k.Rules = append(k.Rules, r)
	}
	for _, d := range ind.serial {
		if perturb && g.rng.Float64() < g.temperature*0.3 {
			continue
		}
		k.Serial = append(k.Serial, d)
	}
	k.Text = g.compose(ind.notes)
	return k
}

// compose joins prose fragments into the knowledge text (the part of the
// candidate a real LLM would phrase freely).
const knowledgePreamble = "Consider the following when making your decision: "

func (g *GPT) compose(notes []string) string {
	var parts []string
	for _, n := range notes {
		n = strings.TrimSpace(strings.TrimPrefix(n, knowledgePreamble))
		if n != "" {
			parts = append(parts, n)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return knowledgePreamble + strings.Join(parts, " ")
}

func (g *GPT) dropSome(rules []tasks.Rule, p float64) []tasks.Rule {
	var out []tasks.Rule
	for _, r := range rules {
		if g.rng.Float64() < p {
			continue
		}
		out = append(out, r)
	}
	return out
}

func (g *GPT) meter(prompt string) {
	g.Tokens.Input += text.CountTokens(prompt)
	g.Tokens.Calls++
}

func (g *GPT) meterOut(response string) {
	g.Tokens.Output += text.CountTokens(response)
}

func instancesOf(errs []akb.ErrorCase) []*data.Instance {
	out := make([]*data.Instance, 0, len(errs))
	for _, e := range errs {
		out = append(out, e.Instance)
	}
	return out
}
