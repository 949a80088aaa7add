package tasks

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/text"
)

// Example is one model-ready example: the weighted prompt segments to
// encode, the candidate answers, the gold index, and the per-candidate rule
// hints contributed by knowledge. It is the contract between tasks and
// internal/model.
type Example struct {
	Segments   []text.Segment
	Candidates []string
	Gold       int
	Hints      []float64
	// Prompt is the rendered natural-language prompt, used for token/cost
	// accounting (Table III) and debugging; the model consumes Segments.
	Prompt string
}

// Segment weights: the record dominates, task scaffolding contributes a
// task identity signal, knowledge text shifts the input like any prompt
// edit would.
const (
	wDescription = 0.25
	// Knowledge text gets a small weight: it shifts the encoded input the
	// way a prompt prefix shifts an LLM's activations, without drowning the
	// record features (the structured rule/directive channels carry the
	// instance-specific effect of knowledge).
	wKnowledge = 0.12
	wTarget    = 1.5
	wQuestion  = 0.15
	wFormat    = 1.0
	wAlign     = 1.6
)

// BuildExample converts an instance into a model-ready example under the
// given knowledge (nil for none). This is the serializer: it applies the
// knowledge's serialization directives, derives format-signature and
// pair-alignment features (the substrate's stand-in for what a transformer
// reads off raw text), and compiles rules to candidate hints.
func BuildExample(spec Spec, in *data.Instance, k *Knowledge) *Example {
	ex := &Example{}
	BuildExampleInto(ex, spec, in, k)
	ex.Prompt = RenderPrompt(spec, in, k)
	return ex
}

// BuildExampleInto is the serve-path variant of BuildExample: it fills ex in
// place, reusing ex.Segments' backing array, and does NOT render ex.Prompt —
// the rendered prompt exists only for token/cost accounting and debugging,
// and the model consumes Segments. The emitted segments are identical to
// BuildExample's (same serializer, same order, same weights), which is what
// keeps the batched serve path byte-identical to the direct path.
func BuildExampleInto(ex *Example, spec Spec, in *data.Instance, k *Knowledge) {
	ex.Candidates = in.Candidates
	ex.Gold = in.Gold
	ex.Hints = k.Hints(in)
	ex.Prompt = ""
	fields, weights := k.ApplySerial(in.Fields)

	segs := append(ex.Segments[:0], text.Segment{Text: taskLabel(spec.Kind), Weight: wDescription})
	segs = append(segs, text.Segment{Text: spec.Description, Weight: wDescription})
	if k != nil && k.Text != "" {
		segs = append(segs, text.Segment{Field: "knowledge", Text: k.Text, Weight: wKnowledge, Isolated: true})
	}
	for i, f := range fields {
		name := f.Name
		if f.Entity != "" {
			name = f.Entity + "." + f.Name
		}
		w := weights[i]
		if in.Target != "" && strings.EqualFold(f.Name, in.Target) {
			w *= wTarget
		}
		segs = append(segs, text.Segment{Field: name, Text: f.Value, Weight: w})
		// Format signature features: cheap descriptors a human (or LLM)
		// reads off the raw string, emitted for every field so format rules
		// are learnable upstream and transferable downstream.
		if sig := formatSignature(f.Value); sig != "" {
			segs = append(segs, text.Segment{Field: "fmt." + name, Text: sig, Weight: w * wFormat})
		}
	}
	if in.Target != "" {
		segs = append(segs, text.Segment{Field: "target", Text: in.Target, Weight: wTarget})
	}
	// Pair-alignment features for two-entity tasks.
	segs = appendAlignSegments(segs, in)
	segs = append(segs, text.Segment{Text: spec.Question, Weight: wQuestion})
	ex.Segments = segs
}

// taskLabels holds the task-identity segment text of each of the seven
// kinds, built once, so a row does not allocate the concatenation.
var taskLabels = func() map[Kind]string {
	m := make(map[Kind]string, len(All()))
	for _, k := range All() {
		m[k] = "task " + string(k)
	}
	return m
}()

// taskLabel returns "task " + k, from taskLabels for the seven kinds.
func taskLabel(k Kind) string {
	if s, ok := taskLabels[k]; ok {
		return s
	}
	return "task " + string(k)
}

// formatSignature describes the surface form of a value in a few tokens.
// At most two tokens ever apply, so the common cases return a constant
// string without building a slice — this runs for every field of every
// example on the serve hot path.
func formatSignature(v string) string {
	first := ""
	switch {
	case IsMissingValue(v):
		return "missing"
	case MatchesFormat(FormatPercent, v):
		first = "haspercent"
	}
	second := ""
	switch {
	case MatchesFormat(FormatDateISO, v):
		second = "isodate"
	case isSlashDate(v):
		second = "slashdate"
	case MatchesFormat(FormatTimeAMPM, v):
		second = "ampmtime"
	case MatchesFormat(FormatISSN, v):
		second = "issn"
	case MatchesFormat(FormatInteger, v):
		second = "integer"
	case MatchesFormat(FormatDecimal, v):
		second = "decimal"
	case MatchesFormat(FormatNumeric, v):
		second = "numericish"
	}
	switch {
	case first == "":
		return second
	case second == "":
		return first
	}
	return first + " " + second
}

// appendAlignSegments appends to segs the comparison features of a pair
// instance (EM, SM): per-attribute equal/differ/missing states, token overlap
// buckets, and the shared-model-token signal — what a sequence model reads
// from seeing both records side by side. Alignment features are a pure
// function of in.Fields — independent of knowledge and spec — and dataset
// rows get re-serialized constantly (every AKB Evaluate sweep, every training
// epoch), so the tokenization/map work behind them is paid once per instance
// and memoized on the instance itself: a row decoded for one request or one
// job takes its memo with it when it is collected. The memoized slice is
// append-copied, never aliased into the caller's example.
func appendAlignSegments(segs []text.Segment, in *data.Instance) []text.Segment {
	return append(segs, in.Derived(alignMemo).([]text.Segment)...)
}

func alignMemo(in *data.Instance) any { return computeAlignSegments(in) }

// computeAlignSegments is the uncached worker behind appendAlignSegments.
func computeAlignSegments(in *data.Instance) (segs []text.Segment) {
	byEntity := map[string]map[string]string{}
	for _, f := range in.Fields {
		if f.Entity == "" {
			continue
		}
		if byEntity[f.Entity] == nil {
			byEntity[f.Entity] = map[string]string{}
		}
		byEntity[f.Entity][strings.ToLower(f.Name)] = f.Value
	}
	if len(byEntity) != 2 {
		return segs
	}
	var sides []map[string]string
	for _, e := range []string{"A", "B"} {
		if m, ok := byEntity[e]; ok {
			sides = append(sides, m)
		}
	}
	if len(sides) != 2 {
		// Unusual entity labels: take them in sorted-name order so the
		// derived features stay deterministic.
		names := make([]string, 0, len(byEntity))
		for e := range byEntity {
			names = append(names, e)
		}
		sort.Strings(names)
		sides = sides[:0]
		for _, e := range names[:2] {
			sides = append(sides, byEntity[e])
		}
	}
	var shared, total int
	tokensOf := func(s string) map[string]bool {
		out := map[string]bool{}
		for _, t := range text.Tokenize(s) {
			if len(t) > 1 {
				out[t] = true
			}
		}
		return out
	}
	// Deterministic attribute order: map iteration order would perturb the
	// float accumulation order inside the feature hasher.
	attrs := make([]string, 0, len(sides[0]))
	for attr := range sides[0] {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		va := sides[0][attr]
		vb, ok := sides[1][attr]
		if !ok {
			continue
		}
		state := "differ"
		switch {
		case IsMissingValue(va) || IsMissingValue(vb):
			state = "missing"
		case normalizeLoose(va) == normalizeLoose(vb):
			state = "equal"
		default:
			ta, tb := tokensOf(va), tokensOf(vb)
			inter := 0
			for t := range ta {
				if tb[t] {
					inter++
				}
			}
			union := len(ta) + len(tb) - inter
			if union > 0 && float64(inter)/float64(union) > 0.5 {
				state = "overlap"
			}
		}
		segs = append(segs, text.Segment{Field: "align." + attr, Text: state, Weight: wAlign})
	}
	// Global token overlap bucket across all values.
	ta, tb := map[string]bool{}, map[string]bool{}
	for _, v := range sides[0] {
		for t := range tokensOf(v) {
			ta[t] = true
		}
	}
	for _, v := range sides[1] {
		for t := range tokensOf(v) {
			tb[t] = true
		}
	}
	for t := range ta {
		if tb[t] {
			shared++
		}
	}
	total = len(ta) + len(tb) - shared
	bucket := "low"
	if total > 0 {
		j := float64(shared) / float64(total)
		switch {
		case j > 0.6:
			bucket = "high"
		case j > 0.3:
			bucket = "mid"
		}
	}
	segs = append(segs, text.Segment{Field: "align.overlap", Text: bucket, Weight: wAlign})
	if sharedModelToken(in) {
		segs = append(segs, text.Segment{Field: "align.modeltoken", Text: "shared", Weight: wAlign})
	} else {
		segs = append(segs, text.Segment{Field: "align.modeltoken", Text: "none", Weight: wAlign})
	}
	return segs
}

// RenderPrompt renders the full natural-language prompt in the Jellyfish
// template style of Listing 1, with the knowledge inserted as the
// supplementary section the AKB component fills (Section VI).
func RenderPrompt(spec Spec, in *data.Instance, k *Knowledge) string {
	var sb strings.Builder
	sb.WriteString("You are an AI assistant that follows instruction extremely well. ")
	sb.WriteString("User will give you a question. Your task is to answer as faithfully as you can.\n\n")
	sb.WriteString(spec.Description)
	sb.WriteString("\n")
	if k != nil && k.Text != "" {
		sb.WriteString("\n[KNOWLEDGE] ")
		sb.WriteString(k.Text)
		sb.WriteString("\n")
	}
	sb.WriteString("\nRecord ")
	sb.WriteString(data.RenderRecord(in.Fields))
	sb.WriteString("\n")
	if in.Target != "" {
		fmt.Fprintf(&sb, "Attribute for consideration: [%s: %s]\n", in.Target, in.FieldValue(in.Target))
	}
	sb.WriteString("\n")
	sb.WriteString(spec.Question)
	return sb.String()
}

// RenderKnowledgeText produces a prose rendering of structured knowledge in
// the style of the paper's Table VIII entries; the oracle uses it to fill
// the Text channel so the prompt genuinely grows by the knowledge length.
func RenderKnowledgeText(k *Knowledge) string {
	if k == nil {
		return ""
	}
	var lines []string
	if k.Text != "" {
		lines = append(lines, k.Text)
	}
	for _, d := range k.Serial {
		attr := d.Attr
		if attr == "" {
			attr = "all attributes"
		}
		switch d.Action {
		case ActionIgnore:
			lines = append(lines, fmt.Sprintf("Values of %s can be disregarded.", attr))
		case ActionEmphasize:
			lines = append(lines, fmt.Sprintf("Pay particular attention to %s; it is a primary identifier.", attr))
		case ActionNormalizeMissing:
			lines = append(lines, fmt.Sprintf("Treat nan or empty %s as missing and focus on the other attributes.", attr))
		}
	}
	for _, r := range k.Rules {
		lines = append(lines, describeRule(r))
	}
	return strings.Join(lines, " ")
}

func describeRule(r Rule) string {
	cond := ""
	attr := r.Cond.Attr
	if attr == "" {
		attr = "the target attribute"
	}
	switch r.Cond.Pred {
	case PredAlways:
		cond = "in general"
	case PredContains:
		cond = fmt.Sprintf("when %s contains %q", attr, r.Cond.Arg)
	case PredMissing:
		cond = fmt.Sprintf("when %s is missing or NaN", attr)
	case PredNotMissing:
		cond = fmt.Sprintf("when %s is present", attr)
	case PredFormat:
		cond = fmt.Sprintf("when %s has format %s", attr, r.Cond.Arg)
	case PredNotFormat:
		cond = fmt.Sprintf("when %s does not follow format %s", attr, r.Cond.Arg)
	case PredSharedModelToken:
		cond = "when both entities share a model number"
	case PredNoSharedModelToken:
		cond = "when the entities share no model number"
	case PredAttrEqual:
		cond = fmt.Sprintf("when %s matches on both sides", attr)
	case PredNotInRange:
		cond = fmt.Sprintf("when %s is outside %s", attr, r.Cond.Arg)
	case PredInDict:
		cond = fmt.Sprintf("when %s is one of the known values", attr)
	case PredNotInDict:
		cond = fmt.Sprintf("when %s looks like a misspelling of a known value", attr)
	}
	ans := r.Answer.Literal
	switch r.Answer.Transform {
	case TransformStripPercent:
		ans = "the value without the % symbol"
	case TransformStripSymbols:
		ans = "the value with stray symbols removed"
	case TransformDateISO:
		ans = "the date rewritten as YYYY-MM-DD"
	case TransformFirstWord:
		src := r.Answer.Arg
		if src == "" {
			src = "the value"
		}
		ans = "the first word of " + src
	case TransformSpellFix:
		ans = "the closest known spelling"
	}
	if cond == "" {
		cond = "when the rule applies"
	}
	scope := ""
	if r.Target != "" {
		scope = " (for " + r.Target + ")"
	}
	return fmt.Sprintf("%s, answer %s%s (confidence %.2f).",
		strings.ToUpper(cond[:1])+cond[1:], ans, scope, r.Weight)
}
