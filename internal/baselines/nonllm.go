package baselines

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/text"
)

// NonLLM dispatches to the per-task classical method of Section VII-A's
// baseline list: Raha (ED), IPM (DI), SMAT (SM), Ditto (EM), Doduo (CTA),
// MAVE (AVE), Baran (DC). All of them are feature- or memory-based learners
// fitted to the 20 few-shot examples only — which is exactly why they
// overfit in this regime (Section VII-B).
type NonLLM struct{}

// Name implements Method.
func (NonLLM) Name() string { return "Non-LLM" }

// Adapt implements Method.
func (NonLLM) Adapt(ctx *AdaptContext) Predictor {
	switch ctx.Bundle.Kind {
	case tasks.ED:
		return rowPredictor(newProfileDetector(ctx.FewShot).Predict)
	case tasks.DC:
		return rowPredictor(newMemoCorrector(ctx.FewShot).Predict)
	case tasks.EM, tasks.SM:
		return rowPredictor(newLogReg(ctx.Bundle.Kind, ctx.FewShot, ctx.Seed).Predict)
	case tasks.DI:
		return rowPredictor(newKNNImputer(ctx.FewShot).Predict)
	case tasks.CTA:
		return rowPredictor(newCentroidTyper(ctx.FewShot).Predict)
	case tasks.AVE:
		return rowPredictor(newVocabTagger(ctx.FewShot).Predict)
	default:
		return rowPredictor(constPredictor{tasks.AnswerNo}.Predict)
	}
}

// newEncoder returns the feature hasher of the learned non-LLM methods: the
// default-dimension space the DP-LM sees. Each predictor owns one.
func newEncoder() *text.Encoder { return text.NewEncoder(text.NewHasher(text.DefaultDim)) }

type constPredictor struct{ ans string }

func (c constPredictor) Predict(*data.Instance) string { return c.ans }

// --- ED: Raha-style profile detector -----------------------------------------

// profileDetector learns per-attribute clean-value profiles (dictionary +
// dominant format) from the few-shot negatives and flags deviations.
type profileDetector struct {
	dicts   map[string]map[string]bool
	formats map[string]string
}

func newProfileDetector(fewshot []*data.Instance) *profileDetector {
	d := &profileDetector{dicts: map[string]map[string]bool{}, formats: map[string]string{}}
	byAttr := map[string][]string{}
	for _, in := range fewshot {
		if in.GoldText() != tasks.AnswerNo {
			continue
		}
		v := in.FieldValue(in.Target)
		byAttr[in.Target] = append(byAttr[in.Target], v)
		if d.dicts[in.Target] == nil {
			d.dicts[in.Target] = map[string]bool{}
		}
		d.dicts[in.Target][strings.ToLower(v)] = true
	}
	for attr, vals := range byAttr {
		counts := map[string]int{}
		for _, v := range vals {
			counts[formatOf(v)]++
		}
		best, bestC := "", 0
		for f, c := range counts {
			if c > bestC {
				best, bestC = f, c
			}
		}
		if bestC*2 >= len(vals) {
			d.formats[attr] = best
		}
	}
	return d
}

func formatOf(v string) string {
	switch {
	case tasks.IsMissingValue(v):
		return "missing"
	case tasks.MatchesFormat(tasks.FormatPercent, v):
		return "percent"
	case tasks.MatchesFormat(tasks.FormatDateISO, v):
		return "iso"
	case tasks.MatchesFormat(tasks.FormatTimeAMPM, v):
		return "ampm"
	case tasks.MatchesFormat(tasks.FormatISSN, v):
		return "issn"
	case tasks.MatchesFormat(tasks.FormatInteger, v):
		return "int"
	case tasks.MatchesFormat(tasks.FormatDecimal, v):
		return "dec"
	default:
		return "text"
	}
}

func (d *profileDetector) Predict(in *data.Instance) string {
	v := in.FieldValue(in.Target)
	if tasks.IsMissingValue(v) {
		return tasks.AnswerYes
	}
	if f, ok := d.formats[in.Target]; ok && formatOf(v) != f {
		return tasks.AnswerYes
	}
	// Unknown value close to a known one looks like a typo.
	if dict := d.dicts[in.Target]; len(dict) >= 3 && !dict[strings.ToLower(v)] {
		for w := range dict {
			if dist := leven(strings.ToLower(v), w); dist > 0 && dist <= 2 {
				return tasks.AnswerYes
			}
		}
	}
	return tasks.AnswerNo
}

// --- DC: Baran-style memorized corrections ------------------------------------

// memoCorrector memorizes (error pattern → correction kind) from few-shot
// pairs and otherwise picks the candidate closest to the dirty value.
type memoCorrector struct {
	missingGold map[string]string // attr → gold used for missing values
}

func newMemoCorrector(fewshot []*data.Instance) *memoCorrector {
	m := &memoCorrector{missingGold: map[string]string{}}
	for _, in := range fewshot {
		if tasks.IsMissingValue(in.FieldValue(in.Target)) {
			m.missingGold[in.Target] = in.GoldText()
		}
	}
	return m
}

func (m *memoCorrector) Predict(in *data.Instance) string {
	dirty := in.FieldValue(in.Target)
	if tasks.IsMissingValue(dirty) {
		if g, ok := m.missingGold[in.Target]; ok {
			return g
		}
		return tasks.AnswerNA
	}
	best, bestDist := "", 1<<30
	for _, c := range in.Candidates {
		if c == tasks.AnswerNA || c == "-1" {
			continue
		}
		if d := leven(strings.ToLower(c), strings.ToLower(dirty)); d < bestDist {
			best, bestDist = c, d
		}
	}
	if best == "" {
		return tasks.AnswerNA
	}
	return best
}

// --- EM/SM: Ditto/SMAT-style logistic regression -------------------------------

// logReg is an L2-regularized logistic regression over the hashed example
// segments (the same features the DP-LM sees) trained on the few-shot pairs.
type logReg struct {
	spec tasks.Spec
	enc  *text.Encoder
	w    []float64
	b    float64
}

func newLogReg(kind tasks.Kind, fewshot []*data.Instance, seed int64) *logReg {
	lr := &logReg{spec: tasks.SpecFor(kind), enc: newEncoder(), w: make([]float64, text.DefaultDim)}
	type sample struct {
		x *tensor.Sparse
		y float64
	}
	var samples []sample
	for _, in := range fewshot {
		y := 0.0
		if in.GoldText() == tasks.AnswerYes {
			y = 1
		}
		samples = append(samples, sample{lr.encode(in), y})
	}
	rng := rand.New(rand.NewSource(seed))
	const epochs, eta, l2 = 60, 0.5, 1e-3
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		for _, s := range samples {
			p := lr.prob(s.x)
			g := p - s.y
			for i, idx := range s.x.Idx {
				lr.w[idx] -= eta * (g*s.x.Val[i] + l2*lr.w[idx])
			}
			lr.b -= eta * g
		}
	}
	return lr
}

func (lr *logReg) encode(in *data.Instance) *tensor.Sparse {
	// Raw bag-of-tokens features only: classical matchers trained from
	// scratch on 20 pairs see surface text, not the task-aware alignment
	// features a pretrained sequence model derives — which is exactly why
	// they overfit in the few-shot regime (Section VII-B).
	segs := make([]text.Segment, 0, len(in.Fields))
	for _, f := range in.Fields {
		segs = append(segs, text.Segment{Field: f.Entity + "." + f.Name, Text: f.Value, Weight: 1})
	}
	return lr.enc.Encode(segs)
}

func (lr *logReg) prob(x *tensor.Sparse) float64 {
	s := lr.b
	for i, idx := range x.Idx {
		s += lr.w[idx] * x.Val[i]
	}
	return 1 / (1 + math.Exp(-s))
}

func (lr *logReg) Predict(in *data.Instance) string {
	if lr.prob(lr.encode(in)) >= 0.5 {
		return tasks.AnswerYes
	}
	return tasks.AnswerNo
}

// --- DI: IPM-style nearest-neighbor imputer ------------------------------------

type knnImputer struct {
	enc   *text.Encoder
	memo  []*tensor.Sparse
	golds []string
}

func newKNNImputer(fewshot []*data.Instance) *knnImputer {
	k := &knnImputer{enc: newEncoder()}
	for _, in := range fewshot {
		k.memo = append(k.memo, recordVec(k.enc, in))
		k.golds = append(k.golds, in.GoldText())
	}
	return k
}

// recordVec hashes an instance's record content, one field segment per
// attribute: the retrieval key of the kNN, centroid, ICL and MELD methods.
func recordVec(e *text.Encoder, in *data.Instance) *tensor.Sparse {
	segs := make([]text.Segment, 0, len(in.Fields))
	for _, f := range in.Fields {
		segs = append(segs, text.Segment{Field: f.Name, Text: f.Value, Weight: 1})
	}
	return e.Encode(segs)
}

func (k *knnImputer) Predict(in *data.Instance) string {
	q := recordVec(k.enc, in)
	best, bestSim := -1, -1.0
	for i, v := range k.memo {
		if s := q.Dot(v); s > bestSim {
			best, bestSim = i, s
		}
	}
	if best < 0 {
		return tasks.AnswerNA
	}
	ans := k.golds[best]
	// The memorized answer is only usable if it is admissible here.
	for _, c := range in.Candidates {
		if strings.EqualFold(c, ans) {
			return c
		}
	}
	return tasks.AnswerNA
}

// --- CTA: Doduo-style nearest-centroid typer -----------------------------------

type centroidTyper struct {
	enc    *text.Encoder
	labels []string
	cents  [][]float64
}

func newCentroidTyper(fewshot []*data.Instance) *centroidTyper {
	c := &centroidTyper{enc: newEncoder()}
	byLabel := map[string][]*data.Instance{}
	for _, in := range fewshot {
		byLabel[in.GoldText()] = append(byLabel[in.GoldText()], in)
	}
	var labels []string
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		vec := make([]float64, text.DefaultDim)
		for _, in := range byLabel[l] {
			v := recordVec(c.enc, in)
			for i, idx := range v.Idx {
				vec[idx] += v.Val[i]
			}
		}
		var n float64
		for _, x := range vec {
			n += x * x
		}
		if n > 0 {
			inv := 1 / math.Sqrt(n)
			for i := range vec {
				vec[i] *= inv
			}
		}
		c.labels = append(c.labels, l)
		c.cents = append(c.cents, vec)
	}
	return c
}

func (c *centroidTyper) Predict(in *data.Instance) string {
	q := recordVec(c.enc, in)
	best, bestSim := "", -1.0
	for i, cent := range c.cents {
		var s float64
		for j, idx := range q.Idx {
			s += q.Val[j] * cent[idx]
		}
		if s > bestSim {
			best, bestSim = c.labels[i], s
		}
	}
	if best == "" && len(in.Candidates) > 0 {
		return in.Candidates[0]
	}
	return best
}

// --- AVE: MAVE-style vocabulary tagger -------------------------------------------

type vocabTagger struct {
	vocab map[string]map[string]bool // target attribute → known values
}

func newVocabTagger(fewshot []*data.Instance) *vocabTagger {
	v := &vocabTagger{vocab: map[string]map[string]bool{}}
	for _, in := range fewshot {
		g := in.GoldText()
		if g == tasks.AnswerNA {
			continue
		}
		if v.vocab[in.Target] == nil {
			v.vocab[in.Target] = map[string]bool{}
		}
		v.vocab[in.Target][strings.ToLower(g)] = true
	}
	return v
}

func (v *vocabTagger) Predict(in *data.Instance) string {
	known := v.vocab[in.Target]
	for _, c := range in.Candidates {
		if known[strings.ToLower(c)] {
			return c
		}
	}
	return tasks.AnswerNA
}

// leven is a budgeted Levenshtein distance.
func leven(a, b string) int {
	if len(a) > 32 || len(b) > 32 {
		if a == b {
			return 0
		}
		return 33
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
