// Package akb implements Automatic Knowledge Bridging (Section VI,
// Algorithm 2): the inference-time component of KnowTrans. It frames the
// search for dataset-informed knowledge as prompt optimization (Eq. 6):
//
//	ρ* = argmax_ρ E[(x,y)] S(ρ, x, y)
//
// realized as a four-step loop — Generation (Eq. 7), Evaluation with the
// task metric (Eq. 8), error Feedback (Eq. 9), and Refinement over the full
// knowledge trajectory (Eq. 11) — driven by a closed-source-LLM Oracle.
package akb

import (
	"context"
	"math/rand"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// Predictor is the fine-tuned DP-LLM 𝓜' that evaluation queries
// (internal/model.Model satisfies it, keeping akb decoupled from the
// substrate). Evaluation is batch-shaped (Eq. 8 scores a candidate over the
// whole validation split), so the one method answers a slice.
type Predictor interface {
	// PredictBatchWith returns the model's answer for each instance under
	// the given knowledge, one per instance in order. The returned slice may
	// be scratch reused across calls.
	PredictBatchWith(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string
}

// ErrorCase is one validation failure: the instance plus the model's wrong
// answer, the raw material of the Feedback step.
type ErrorCase struct {
	Instance  *data.Instance
	Predicted string
}

// GenerateRequest asks the oracle for an initial candidate pool (Eq. 7).
type GenerateRequest struct {
	Kind     tasks.Kind
	Seed     *tasks.Knowledge
	Examples []*data.Instance
	PoolSize int
}

// FeedbackRequest asks the oracle to analyze error cases (Eq. 9).
type FeedbackRequest struct {
	Kind      tasks.Kind
	Knowledge *tasks.Knowledge
	Errors    []ErrorCase
}

// RefineRequest asks the oracle for refined knowledge (Eq. 10/11).
type RefineRequest struct {
	Kind       tasks.Kind
	Knowledge  *tasks.Knowledge
	Errors     []ErrorCase
	Feedback   string
	Trajectory []*tasks.Knowledge
}

// Oracle is the closed-source LLM 𝓜_gpt. The repository ships a simulated
// rule-induction oracle (internal/oracle); an implementation backed by a
// real API satisfies the same interface.
type Oracle interface {
	Generate(req GenerateRequest) []*tasks.Knowledge
	Feedback(req FeedbackRequest) string
	Refine(req RefineRequest) []*tasks.Knowledge
}

// The search's shape, fixed by the paper's Section VII-A AKB settings: 10
// demonstrations for generation, a generated pool of 4, 3 iterations unless
// the caller sweeps them, and per iteration 2 feedback/refinement rounds,
// each on a sampled error subset of 4.
const (
	defaultIterations = 3
	genExamples       = 10
	poolSize          = 4
	refinePerIter     = 2
	errorsPerSubset   = 4
)

// Config is what varies between searches: the number of iterations (Fig. 7
// sweeps it; 0 means defaultIterations), the seed, and the recorder.
type Config struct {
	Iterations int
	Seed       int64
	// Rec, when non-nil, receives one span per Generation / Evaluation /
	// Feedback / Refinement step, per-iteration candidate-score
	// observations, and the oracle-call / predictor-eval counters the cost
	// analysis (Table III) is built on.
	Rec *obs.Recorder
}

// DefaultConfig returns the paper's settings.
func DefaultConfig(seed int64) Config {
	return Config{Iterations: defaultIterations, Seed: seed}
}

// Step records one iteration for the round-count analysis of Fig. 7.
// Degraded counts the oracle interactions of the iteration that failed and
// were skipped (feedback or refinement rounds); 0 on a healthy iteration.
type Step struct {
	Iter      int
	EvalScore float64
	TestScore float64 // -1 when no probe set was supplied
	PoolSize  int
	Degraded  int
}

// Result is the outcome of the search. DegradedRounds totals the oracle
// interactions (generation, feedback, refinement) that failed and were
// skipped — the search kept its best-so-far knowledge instead of aborting;
// Rejected counts oracle-returned candidates dropped as malformed before
// evaluation. Both are 0 on a fully healthy run.
type Result struct {
	Best           *tasks.Knowledge
	BestScore      float64
	Steps          []Step
	Feedbacks      []string
	DegradedRounds int
	Rejected       int
}

// Degraded reports whether any oracle interaction of the search failed.
func (r *Result) Degraded() bool { return r.DegradedRounds > 0 }

// SearchFallible runs Algorithm 2. valid is the validation split (the paper
// reuses the few-shot set D'_i); probe, when non-nil, is an extra held-out
// set scored each iteration purely for reporting (Fig. 7's test curves) — it
// never influences the search. An infallible in-process oracle enters
// through AsFallible.
//
// The oracle may fail: time out, rate-limit or return garbage. A failed or
// exhausted Generation / Feedback / Refinement round is skipped rather
// than fatal: the search keeps its best-so-far knowledge, records a
// degraded Step, and the Result reports how many rounds degraded.
// Candidates returned by the oracle are sanitized (SanitizeCandidates)
// before they reach Evaluate, so malformed responses cannot poison the
// selection. SearchFallible always returns a non-nil Result — in the worst
// case (every oracle call failing) the result is the no-knowledge baseline
// scored on the validation set.
func SearchFallible(ctx context.Context, pred Predictor, oracle FallibleOracle, kind tasks.Kind, valid []*data.Instance, probe []*data.Instance, cfg Config) *Result {
	if cfg.Iterations == 0 {
		cfg.Iterations = defaultIterations
	}
	rec, searchSpan := cfg.Rec.StartSpan("akb.search")
	defer searchSpan.End()
	searchSpan.SetAttr("kind", string(kind))
	searchSpan.SetAttr("valid", len(valid))
	searchSpan.SetAttr("iterations", cfg.Iterations)
	rng := rand.New(rand.NewSource(cfg.Seed))
	spec := tasks.SpecFor(kind)

	res := &Result{}
	// degrade records one skipped oracle interaction: the counters and the
	// trace carry enough to reconstruct the fault schedule offline.
	degrade := func(r *obs.Recorder, op string, err error) {
		res.DegradedRounds++
		r.Count("akb.degraded_rounds", 1)
		r.Event("akb.degraded", "op", op, "err", err.Error())
	}
	// admit sanitizes an oracle response before it joins the pool.
	admit := func(r *obs.Recorder, ks []*tasks.Knowledge) []*tasks.Knowledge {
		kept, rejected := SanitizeCandidates(ks)
		if rejected > 0 {
			res.Rejected += rejected
			r.Count("akb.candidates_rejected", int64(rejected))
		}
		return kept
	}

	// Line 1: sample demonstrations X_demos ⊂ D_valid.
	demos := sampleInstances(rng, valid, genExamples)

	// Line 2: initial candidate pool via Eq. 7. The empty knowledge is
	// always a candidate so the search can conclude "no knowledge helps"
	// (the AVE behaviour in Fig. 7b) — and so a dead oracle still leaves a
	// scorable pool.
	pool := []*tasks.Knowledge{nil}
	genRec, genSpan := rec.StartSpan("akb.generation")
	rec.Count("akb.oracle_calls", 1)
	generated, err := oracle.Generate(ctx, GenerateRequest{
		Kind:     kind,
		Examples: demos,
		PoolSize: poolSize,
	})
	if err != nil {
		degrade(genRec, "generate", err)
		genSpan.SetAttr("degraded", true)
	} else {
		pool = append(pool, admit(genRec, generated)...)
	}
	genSpan.SetAttr("pool_size", len(pool))
	genSpan.End()

	scores := map[*tasks.Knowledge]float64{}
	scoreOf := func(k *tasks.Knowledge) float64 {
		if s, ok := scores[k]; ok {
			return s
		}
		rec.Count("akb.predictor_evals", int64(len(valid)))
		s := Evaluate(pred, spec, valid, k)
		scores[k] = s
		return s
	}
	// better reports whether candidate a should replace incumbent b. The
	// validation metric decides; exact ties break toward the more
	// informative knowledge. Few-shot fine-tuned models often score 100 on
	// the 20-example validation set (they trained on it, as in the paper's
	// protocol), and a tie at the top then certifies that the richer
	// knowledge is consistent with every labeled example — the deterministic
	// analogue of preferring the knowledge a human would keep.
	better := func(a, b *tasks.Knowledge) bool {
		sa, sb := scoreOf(a), scoreOf(b)
		if sa != sb {
			return sa > sb
		}
		return informativeness(a) > informativeness(b)
	}

	for t := 0; t < cfg.Iterations; t++ {
		iterRec, iterSpan := rec.StartSpan("akb.iteration")
		iterSpan.SetAttr("iter", t)
		degradedBefore := res.DegradedRounds
		if len(pool) == 0 {
			// Defensive: selection must never run on an empty pool (an
			// oracle returning nothing leaves at least the nil baseline,
			// but external callers could hand the search a drained pool).
			pool = []*tasks.Knowledge{nil}
		}
		// Line 5: select the best candidate under the task metric (Eq. 8).
		_, evalSpan := iterRec.StartSpan("akb.evaluation")
		best := pool[0]
		for _, k := range pool[1:] {
			if better(k, best) {
				best = k
			}
		}
		// The selection pass scored (or found cached) every candidate;
		// export the per-iteration score distribution (Fig. 7's raw data)
		// and one accept/reject event per candidate, so the knowledge-search
		// trajectory (Eq. 9–11) is reconstructable from the trace alone.
		for i, k := range pool {
			iterRec.Observe("akb.candidate_score", scoreOf(k), obs.DefaultScoreBounds)
			iterRec.Event("akb.candidate", "iter", t, "idx", i,
				"score", scoreOf(k), "accepted", k == best,
				"informativeness", informativeness(k))
		}
		evalSpan.SetAttr("pool_size", len(pool))
		evalSpan.SetAttr("best_score", scoreOf(best))
		evalSpan.End()
		step := Step{Iter: t, EvalScore: scoreOf(best), TestScore: -1, PoolSize: len(pool)}
		if probe != nil {
			iterRec.Count("akb.predictor_evals", int64(len(probe)))
			step.TestScore = Evaluate(pred, spec, probe, best)
		}
		res.Steps = append(res.Steps, step)
		stepIdx := len(res.Steps) - 1
		res.Best, res.BestScore = best, scoreOf(best)
		iterRec.SetGauge("akb.best_score", res.BestScore)
		iterSpan.SetAttr("best_score", res.BestScore)
		iterSpan.SetAttr("pool_size", len(pool))

		if t == cfg.Iterations-1 {
			iterSpan.End()
			break
		}
		// Line 6: error set E under the current best knowledge.
		iterRec.Count("akb.predictor_evals", int64(len(valid)))
		errs := Errors(pred, spec, valid, best)
		if len(errs) == 0 {
			// Converged: nothing left to learn from.
			iterSpan.SetAttr("converged", true)
			iterSpan.End()
			break
		}
		// Lines 7–11: feedback + refinement over sampled error subsets,
		// carrying the full trajectory (Eq. 11). A failed feedback skips its
		// whole subset round (refinement without the analysis would refine
		// blind); a failed refinement keeps the feedback but adds no
		// candidates. Either way the search continues from its best-so-far
		// pool.
		trajectory := append([]*tasks.Knowledge(nil), pool...)
		for j := 0; j < refinePerIter; j++ {
			subset := sampleErrors(rng, errs, errorsPerSubset)
			fbRec, fbSpan := iterRec.StartSpan("akb.feedback")
			fbSpan.SetAttr("errors", len(subset))
			iterRec.Count("akb.oracle_calls", 1)
			fb, err := oracle.Feedback(ctx, FeedbackRequest{Kind: kind, Knowledge: best, Errors: subset})
			if err != nil {
				degrade(fbRec, "feedback", err)
				fbSpan.SetAttr("degraded", true)
				fbSpan.End()
				continue
			}
			fbSpan.End()
			iterRec.Event("akb.feedback", "iter", t, "subset", j,
				"errors", len(subset), "feedback", clip(fb, 200))
			res.Feedbacks = append(res.Feedbacks, fb)
			refRec, refSpan := iterRec.StartSpan("akb.refinement")
			iterRec.Count("akb.oracle_calls", 1)
			refined, err := oracle.Refine(ctx, RefineRequest{
				Kind:       kind,
				Knowledge:  best,
				Errors:     subset,
				Feedback:   fb,
				Trajectory: trajectory,
			})
			if err != nil {
				degrade(refRec, "refine", err)
				refSpan.SetAttr("degraded", true)
				refSpan.End()
				continue
			}
			refined = admit(refRec, refined)
			refSpan.SetAttr("refined", len(refined))
			refSpan.End()
			iterRec.Event("akb.refined", "iter", t, "subset", j, "candidates", len(refined))
			pool = append(pool, refined...)
		}
		if d := res.DegradedRounds - degradedBefore; d > 0 {
			res.Steps[stepIdx].Degraded = d
			iterSpan.SetAttr("degraded", d)
		}
		iterSpan.End()
	}
	// Final selection over the full pool (the loop may have added
	// candidates after the last scoring pass).
	for _, k := range pool {
		if better(k, res.Best) {
			res.Best, res.BestScore = k, scoreOf(k)
		}
	}
	searchSpan.SetAttr("best_score", res.BestScore)
	searchSpan.SetAttr("pool_size", len(pool))
	if res.Degraded() {
		searchSpan.SetAttr("degraded_rounds", res.DegradedRounds)
	}
	if res.Rejected > 0 {
		searchSpan.SetAttr("rejected_candidates", res.Rejected)
	}
	rec.Event("akb.selected", "score", res.BestScore, "pool", len(pool),
		"informativeness", informativeness(res.Best))
	return res
}

// clip truncates s to at most n bytes for event attributes (feedback text
// can be long; the trace wants the gist, res.Feedbacks keeps the whole).
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// informativeness ranks knowledge candidates for tie-breaking: total rule
// confidence plus a small credit per serialization directive.
func informativeness(k *tasks.Knowledge) float64 {
	if k == nil {
		return 0
	}
	var t float64
	for _, r := range k.Rules {
		t += r.Weight
	}
	return t + 0.5*float64(len(k.Serial))
}

// Evaluate scores the predictor on instances under knowledge k with the
// task metric (Eq. 8). An empty instance set scores 0 without touching the
// predictor — the guard that keeps score math away from 0/0 when a caller
// hands the search an empty validation split.
func Evaluate(pred Predictor, spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) float64 {
	if len(ins) == 0 {
		return 0
	}
	metric := tasks.NewMetric(spec.Metric)
	for i, got := range pred.PredictBatchWith(spec, ins, k) {
		metric.Add(got, ins[i].GoldText())
	}
	return metric.Score()
}

// Errors returns the error cases of the predictor on instances under k
// (Algorithm 2 line 6).
func Errors(pred Predictor, spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []ErrorCase {
	var out []ErrorCase
	for i, got := range pred.PredictBatchWith(spec, ins, k) {
		if !equalAnswer(got, ins[i].GoldText()) {
			out = append(out, ErrorCase{Instance: ins[i], Predicted: got})
		}
	}
	return out
}

func equalAnswer(a, b string) bool {
	return normAnswer(a) == normAnswer(b)
}

func normAnswer(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		out = append(out, r)
	}
	// Trim spaces.
	start, end := 0, len(out)
	for start < end && out[start] == ' ' {
		start++
	}
	for end > start && out[end-1] == ' ' {
		end--
	}
	return string(out[start:end])
}

func sampleInstances(rng *rand.Rand, ins []*data.Instance, n int) []*data.Instance {
	if n >= len(ins) {
		return append([]*data.Instance(nil), ins...)
	}
	idx := rng.Perm(len(ins))[:n]
	out := make([]*data.Instance, 0, n)
	for _, i := range idx {
		out = append(out, ins[i])
	}
	return out
}

func sampleErrors(rng *rand.Rand, errs []ErrorCase, n int) []ErrorCase {
	if n >= len(errs) {
		return append([]ErrorCase(nil), errs...)
	}
	idx := rng.Perm(len(errs))[:n]
	out := make([]ErrorCase, 0, n)
	for _, i := range idx {
		out = append(out, errs[i])
	}
	return out
}
