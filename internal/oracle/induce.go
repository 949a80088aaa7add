package oracle

import (
	"sort"
	"strings"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/tasks"
)

// scoredRule is an induced rule with its evidence on the example set.
type scoredRule struct {
	rule    tasks.Rule
	support int // times the condition fired (within the rule's target scope)
	correct int // times the resolved answer matched gold
}

func (s scoredRule) precision() float64 {
	if s.support == 0 {
		return 0
	}
	return float64(s.correct) / float64(s.support)
}

// induced is the full best-effort knowledge the engine derives from labeled
// examples, before temperature sampling turns it into a candidate pool.
type induced struct {
	rules  []scoredRule
	serial []tasks.SerialDirective
	notes  []string // prose fragments describing what was found
}

// induce dispatches to the per-task analyzers. Examples carry gold labels —
// exactly what the paper feeds GPT-4o as input-output demonstrations.
func induce(kind tasks.Kind, examples []*data.Instance) induced {
	switch kind {
	case tasks.ED:
		return induceED(examples)
	case tasks.DC:
		return induceDC(examples)
	case tasks.EM, tasks.SM:
		return inducePair(kind, examples)
	case tasks.DI, tasks.AVE:
		return induceExtract(examples)
	case tasks.CTA:
		return induceCTA(examples)
	default:
		return induced{}
	}
}

// scoreRule evaluates a candidate rule against the examples.
func scoreRule(r tasks.Rule, examples []*data.Instance) scoredRule {
	s := scoredRule{rule: r}
	for _, in := range examples {
		if r.Target != "" && !strings.EqualFold(r.Target, in.Target) {
			continue
		}
		if !r.Cond.Eval(in) {
			continue
		}
		ans, ok := r.Answer.Resolve(in)
		if !ok {
			continue
		}
		s.support++
		if strings.EqualFold(strings.TrimSpace(ans), strings.TrimSpace(in.GoldText())) {
			s.correct++
		}
	}
	return s
}

// keepRule filters candidates by evidence quality and assigns the rule's
// weight from its precision.
func keepRules(cands []tasks.Rule, examples []*data.Instance, minSupport int, minPrecision float64) []scoredRule {
	var out []scoredRule
	for _, r := range cands {
		s := scoreRule(r, examples)
		if s.support >= minSupport && s.precision() >= minPrecision {
			s.rule.Weight = s.precision()
			out = append(out, s)
		}
	}
	// Deterministic order: highest evidence first.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].correct != out[j].correct {
			return out[i].correct > out[j].correct
		}
		return ruleKey(out[i].rule) < ruleKey(out[j].rule)
	})
	return out
}

func ruleKey(r tasks.Rule) string {
	return r.Target + "|" + string(r.Cond.Pred) + "|" + r.Cond.Attr + "|" + r.Cond.Arg + "|" +
		r.Answer.Literal + "|" + string(r.Answer.Transform) + "|" + r.Answer.Arg
}

// targetsOf groups examples by their target attribute.
func targetsOf(examples []*data.Instance) map[string][]*data.Instance {
	out := map[string][]*data.Instance{}
	for _, in := range examples {
		out[in.Target] = append(out[in.Target], in)
	}
	return out
}

// sortedTargets returns the group keys in deterministic order.
func sortedTargets(m map[string][]*data.Instance) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cleanValuesOf collects the target values of negative ("no") ED examples —
// the in-distribution clean vocabulary of an attribute.
func cleanValuesOf(ins []*data.Instance, attr string) []string {
	var out []string
	seen := map[string]bool{}
	for _, in := range ins {
		if in.GoldText() != tasks.AnswerNo {
			continue
		}
		v := in.FieldValue(attr)
		if tasks.IsMissingValue(v) || seen[strings.ToLower(v)] {
			continue
		}
		seen[strings.ToLower(v)] = true
		out = append(out, v)
	}
	return out
}

// canonicalFormats returns the format detectors that (almost) all clean
// values of an attribute satisfy — the attribute's expected surface form.
func canonicalFormats(clean []string) []string {
	if len(clean) < 2 {
		return nil
	}
	var out []string
	for _, f := range []string{
		tasks.FormatDecimal, tasks.FormatInteger, tasks.FormatDateISO,
		tasks.FormatTimeAMPM, tasks.FormatISSN, tasks.FormatNumeric,
	} {
		match := 0
		for _, v := range clean {
			if tasks.MatchesFormat(f, v) {
				match++
			}
		}
		if float64(match)/float64(len(clean)) >= 0.85 {
			out = append(out, f)
		}
	}
	return out
}

// --- ED ---------------------------------------------------------------------

func induceED(examples []*data.Instance) induced {
	var ind induced
	yes := tasks.Answer{Literal: tasks.AnswerYes}
	byTarget := targetsOf(examples)
	for _, attr := range sortedTargets(byTarget) {
		ins := byTarget[attr]
		if attr == "" {
			continue
		}
		clean := cleanValuesOf(ins, attr)
		var cands []tasks.Rule
		cands = append(cands,
			tasks.Rule{Target: attr, Cond: tasks.Condition{Pred: tasks.PredMissing}, Answer: yes},
			tasks.Rule{Target: attr, Cond: tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent}, Answer: yes},
		)
		for _, f := range canonicalFormats(clean) {
			cands = append(cands, tasks.Rule{
				Target: attr,
				Cond:   tasks.Condition{Pred: tasks.PredNotFormat, Arg: f},
				Answer: yes,
			})
		}
		// Misspelling detection: the observed clean values, widened with
		// the oracle's world lexicon when they belong to a known category.
		if dict := expandDict(clean); len(dict) >= 3 {
			cands = append(cands, tasks.Rule{
				Target: attr,
				Cond:   tasks.Condition{Pred: tasks.PredNotInDict, Arg: dictArg(dict)},
				Answer: yes,
			})
		}
		// Out-of-range numerics ("ABV should generally be within a
		// realistic range", per the paper's searched Beer knowledge).
		if rangeArg, ok := numericRange(clean); ok {
			cands = append(cands, tasks.Rule{
				Target: attr,
				Cond:   tasks.Condition{Pred: tasks.PredNotInRange, Arg: rangeArg},
				Answer: yes,
			})
		}
		// Validity rules: knowledge cuts both ways. The paper's searched
		// knowledge is explicit that recognized values are NOT errors
		// ("0 can be a valid value", "abbreviations are acceptable"), which
		// is what keeps a balanced-trained few-shot model from flagging
		// clean records.
		no := tasks.Answer{Literal: tasks.AnswerNo}
		if dict := expandDict(clean); len(dict) >= 3 {
			cands = append(cands, tasks.Rule{
				Target: attr,
				Cond:   tasks.Condition{Pred: tasks.PredInDict, Arg: dictArg(dict)},
				Answer: no,
			})
		}
		for _, f := range canonicalFormats(clean) {
			cands = append(cands, tasks.Rule{
				Target: attr,
				Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: f},
				Answer: no,
			})
		}
		// Few-shot pools are tiny (the paper feeds 10 demonstrations), so a
		// single supporting example is admissible evidence; unreliable rules
		// are weeded out by AKB's Evaluation step, not here.
		kept := keepRules(cands, ins, 1, 0.75)
		for _, s := range kept {
			ind.rules = append(ind.rules, s)
		}
	}
	return ind
}

// --- DC ---------------------------------------------------------------------

func induceDC(examples []*data.Instance) induced {
	var ind induced
	byTarget := targetsOf(examples)
	for _, attr := range sortedTargets(byTarget) {
		ins := byTarget[attr]
		if attr == "" {
			continue
		}
		// Dictionary: gold corrections of this attribute (the known-good
		// spellings the paper's Beer DC knowledge references).
		var dict []string
		seen := map[string]bool{}
		for _, in := range ins {
			g := in.GoldText()
			if g == "" || g == "-1" || tasks.IsMissingValue(g) || seen[strings.ToLower(g)] {
				continue
			}
			seen[strings.ToLower(g)] = true
			dict = append(dict, g)
		}
		cands := []tasks.Rule{
			{Target: attr, Cond: tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
				Answer: tasks.Answer{Transform: tasks.TransformStripPercent}},
			{Target: attr, Cond: tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatDateAny},
				Answer: tasks.Answer{Transform: tasks.TransformDateISO}},
			{Target: attr, Cond: tasks.Condition{Pred: tasks.PredMissing},
				Answer: tasks.Answer{Literal: "-1"}},
			{Target: attr, Cond: tasks.Condition{Pred: tasks.PredAlways},
				Answer: tasks.Answer{Transform: tasks.TransformStripSymbols}},
		}
		if wide := expandDict(dict); len(wide) >= 2 {
			cands = append(cands, tasks.Rule{
				Target: attr,
				Cond:   tasks.Condition{Pred: tasks.PredNotInDict, Arg: dictArg(wide)},
				Answer: tasks.Answer{Transform: tasks.TransformSpellFix, Arg: dictArg(wide)},
			})
		}
		kept := keepRules(cands, ins, 1, 0.7)
		for _, s := range kept {
			ind.rules = append(ind.rules, s)
		}
	}
	return ind
}

// --- EM / SM ----------------------------------------------------------------

func inducePair(kind tasks.Kind, examples []*data.Instance) induced {
	var ind induced
	yes := tasks.Answer{Literal: tasks.AnswerYes}
	no := tasks.Answer{Literal: tasks.AnswerNo}

	if kind == tasks.EM {
		cands := []tasks.Rule{
			{Cond: tasks.Condition{Pred: tasks.PredSharedModelToken}, Answer: yes},
			{Cond: tasks.Condition{Pred: tasks.PredNoSharedModelToken}, Answer: no},
		}
		// Per-attribute identifier rules.
		for _, attr := range pairAttrs(examples) {
			cands = append(cands, tasks.Rule{
				Cond:   tasks.Condition{Pred: tasks.PredAttrEqual, Attr: attr},
				Answer: yes,
			})
		}
		for _, s := range keepRules(cands, examples, 3, 0.8) {
			ind.rules = append(ind.rules, s)
		}
	}

	// Serialization directives from attribute behaviour across the pairs.
	for _, attr := range pairAttrs(examples) {
		stats := attrPairStats(examples, attr)
		if stats.total == 0 {
			continue
		}
		if float64(stats.missing)/float64(stats.total) >= 0.2 {
			ind.serial = append(ind.serial, tasks.SerialDirective{Action: tasks.ActionNormalizeMissing, Attr: attr})
		}
		// An attribute that frequently differs among true matches is noise.
		if stats.matches >= 3 && float64(stats.differAmongMatches)/float64(stats.matches) >= 0.5 {
			ind.serial = append(ind.serial, tasks.SerialDirective{Action: tasks.ActionIgnore, Attr: attr})
		}
	}
	if kind == tasks.SM {
		ind.serial = append(ind.serial, tasks.SerialDirective{Action: tasks.ActionEmphasize, Attr: "description"})
		ind.notes = append(ind.notes, "Focus on the semantic meaning in the descriptions, not just the attribute names.")
	}
	return ind
}

// pairAttrs lists attributes present on both entity sides.
func pairAttrs(examples []*data.Instance) []string {
	count := map[string]int{}
	for _, in := range examples {
		sides := map[string]map[string]bool{}
		for _, f := range in.Fields {
			if f.Entity == "" {
				continue
			}
			if sides[f.Entity] == nil {
				sides[f.Entity] = map[string]bool{}
			}
			sides[f.Entity][strings.ToLower(f.Name)] = true
		}
		if len(sides) != 2 {
			continue
		}
		var both map[string]bool
		for _, s := range sides {
			if both == nil {
				both = s
				continue
			}
			for a := range s {
				if both[a] {
					count[a]++
				}
			}
		}
	}
	var out []string
	for a, c := range count {
		if c >= 2 {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

type pairStats struct {
	total              int
	missing            int
	matches            int
	differAmongMatches int
}

func attrPairStats(examples []*data.Instance, attr string) pairStats {
	var st pairStats
	for _, in := range examples {
		vals := map[string]string{}
		for _, f := range in.Fields {
			if f.Entity != "" && strings.EqualFold(f.Name, attr) {
				vals[f.Entity] = f.Value
			}
		}
		if len(vals) != 2 {
			continue
		}
		st.total++
		anyMissing := false
		var vv []string
		for _, v := range vals {
			if tasks.IsMissingValue(v) {
				anyMissing = true
			}
			vv = append(vv, strings.Join(strings.Fields(strings.ToLower(v)), " "))
		}
		if anyMissing {
			st.missing++
			continue
		}
		if in.GoldText() == tasks.AnswerYes {
			st.matches++
			if vv[0] != vv[1] {
				st.differAmongMatches++
			}
		}
	}
	return st
}

// --- DI / AVE ---------------------------------------------------------------

func induceExtract(examples []*data.Instance) induced {
	var ind induced
	byTarget := targetsOf(examples)
	targets := make([]string, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, target := range targets {
		ins := byTarget[target]
		// Positional rule: gold is the first word of some source attribute.
		for _, src := range fieldNames(ins) {
			r := tasks.Rule{
				Target: target,
				Cond:   tasks.Condition{Pred: tasks.PredNotMissing, Attr: src},
				Answer: tasks.Answer{Transform: tasks.TransformFirstWord, Arg: src},
			}
			s := scoreRule(r, ins)
			if s.support >= 3 && s.precision() >= 0.5 {
				s.rule.Weight = s.precision()
				ind.rules = append(ind.rules, s)
				ind.notes = append(ind.notes, "The "+target+" is typically the first word of "+src+".")
			}
		}
		// Vocabulary rules: values seen for this target re-occur; when the
		// record contains one, it is very likely the answer.
		seen := map[string]int{}
		for _, in := range ins {
			g := in.GoldText()
			if g != "" && g != tasks.AnswerNA {
				seen[g]++
			}
		}
		var vocab []string
		for g := range seen {
			vocab = append(vocab, g)
		}
		sort.Strings(vocab)
		for _, g := range vocab {
			r := tasks.Rule{
				Target: target,
				Cond:   tasks.Condition{Pred: tasks.PredContains, Attr: anyTextAttr(ins), Arg: g},
				Answer: tasks.Answer{Literal: g},
			}
			s := scoreRule(r, examples)
			if s.support >= 1 && s.precision() >= 0.6 {
				s.rule.Weight = s.precision() * 0.8
				ind.rules = append(ind.rules, s)
			}
		}
		if len(vocab) > 0 {
			ind.notes = append(ind.notes, "Known "+target+" values include "+strings.Join(firstN(vocab, 5), ", ")+".")
		}
	}
	// Cap the rule count: a prompt can only carry so much knowledge.
	if len(ind.rules) > 40 {
		ind.rules = ind.rules[:40]
	}
	return ind
}

func fieldNames(ins []*data.Instance) []string {
	seen := map[string]bool{}
	var out []string
	for _, in := range ins {
		for _, f := range in.Fields {
			n := strings.ToLower(f.Name)
			if n == strings.ToLower(in.Target) || seen[n] {
				continue
			}
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// anyTextAttr picks the attribute with the longest values — where spans live.
func anyTextAttr(ins []*data.Instance) string {
	best, bestLen := "", -1
	for _, in := range ins {
		for _, f := range in.Fields {
			if strings.EqualFold(f.Name, in.Target) {
				continue
			}
			if len(f.Value) > bestLen {
				best, bestLen = strings.ToLower(f.Name), len(f.Value)
			}
		}
	}
	return best
}

func firstN(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

// --- CTA --------------------------------------------------------------------

// ctaProbes are surface patterns a careful analyst scans column values for.
var ctaProbes = []string{
	"schema.org", "status", "attendancemode", "@", "$$", "http", "-", ",",
	"st", "ave",
}

func induceCTA(examples []*data.Instance) induced {
	var ind induced
	labels := map[string][]*data.Instance{}
	for _, in := range examples {
		labels[in.GoldText()] = append(labels[in.GoldText()], in)
	}
	names := make([]string, 0, len(labels))
	for l := range labels {
		names = append(names, l)
	}
	sort.Strings(names)
	var cands []tasks.Rule
	for _, label := range names {
		ins := labels[label]
		// Substring probes plus distinctive tokens of this label's values.
		probes := append([]string(nil), ctaProbes...)
		tokenCount := map[string]int{}
		for _, in := range ins {
			for _, f := range in.Fields {
				for _, t := range strings.Fields(strings.ToLower(f.Value)) {
					if len(t) >= 3 {
						tokenCount[t]++
					}
				}
			}
		}
		var toks []string
		for t, c := range tokenCount {
			if c >= 2 {
				toks = append(toks, t)
			}
		}
		sort.Strings(toks)
		probes = append(probes, firstN(toks, 6)...)
		for _, p := range probes {
			cands = append(cands, tasks.Rule{
				Cond:   tasks.Condition{Pred: tasks.PredContains, Attr: "sample", Arg: p},
				Answer: tasks.Answer{Literal: label},
			})
		}
		// Format-based cues.
		for _, f := range []string{tasks.FormatDateISO, tasks.FormatInteger} {
			all := true
			for _, in := range ins {
				for _, fd := range in.Fields {
					if !tasks.MatchesFormat(f, fd.Value) {
						all = false
					}
				}
			}
			if all && len(ins) >= 2 {
				cands = append(cands, tasks.Rule{
					Cond:   tasks.Condition{Pred: tasks.PredFormat, Attr: "sample", Arg: f},
					Answer: tasks.Answer{Literal: label},
				})
			}
		}
	}
	kept := keepRules(cands, examples, 2, 0.9)
	if len(kept) > 30 {
		kept = kept[:30]
	}
	for _, s := range kept {
		ind.rules = append(ind.rules, s)
	}
	if len(kept) > 0 {
		ind.notes = append(ind.notes, "Classify columns by surface patterns: repeated codes, schema.org URLs, symbols like $$, and value formats.")
	}
	return ind
}

// --- prose helpers -----------------------------------------------------------

func condNote(c tasks.Condition) string {
	switch c.Pred {
	case tasks.PredMissing:
		return "a missing or NaN value"
	case tasks.PredFormat:
		return "a value with format " + c.Arg
	case tasks.PredNotFormat:
		return "a value violating the expected " + c.Arg + " format"
	case tasks.PredNotInDict:
		return "a value that looks like a misspelling of a known value"
	case tasks.PredSharedModelToken:
		return "a shared model number between the two entities"
	case tasks.PredNoSharedModelToken:
		return "no shared model number"
	case tasks.PredAttrEqual:
		return "equal " + c.Attr + " values"
	case tasks.PredContains:
		return "a value containing \"" + c.Arg + "\""
	default:
		return string(c.Pred)
	}
}

// misfires reports whether a rule actively supported the wrong prediction on
// an error case — the evidence Refinement uses to drop harmful rules.
func misfires(r tasks.Rule, e akb.ErrorCase) bool {
	in := e.Instance
	if r.Target != "" && !strings.EqualFold(r.Target, in.Target) {
		return false
	}
	if !r.Cond.Eval(in) {
		return false
	}
	ans, ok := r.Answer.Resolve(in)
	if !ok {
		return false
	}
	return strings.EqualFold(strings.TrimSpace(ans), strings.TrimSpace(e.Predicted)) &&
		!strings.EqualFold(strings.TrimSpace(ans), strings.TrimSpace(in.GoldText()))
}
