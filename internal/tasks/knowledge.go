package tasks

import (
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/data"
)

// Knowledge is the executable form of the dataset-informed knowledge the
// AKB component searches for (Section VI). The paper's knowledge is prose
// prepended to the prompt; a 7B LLM interprets it zero-shot. Our substrate
// cannot read prose, so knowledge carries three channels with decreasing
// abstraction:
//
//   - Text: the prose itself; it is hashed into the prompt features, shifting
//     the model input exactly like any prompt edit.
//   - Serial: serialization directives (ignore / emphasize attributes,
//     normalize missing values) applied before encoding, mirroring prose
//     like "product prices can be disregarded".
//   - Rules: condition → supported-answer rules, mirroring prose like "ABV
//     values containing % are errors". Rules compile to per-candidate hints;
//     the model carries a trainable rule-trust scalar (learned during
//     upstream instruction tuning) that decides how much hints sway scores —
//     the analog of an instruction-tuned LLM following stated rules.
//
// A Knowledge value is what 𝓜_gpt (internal/oracle) generates and refines.
type Knowledge struct {
	Text   string
	Serial []SerialDirective
	Rules  []Rule
}

// Empty reports whether k carries no information.
func (k *Knowledge) Empty() bool {
	return k == nil || (k.Text == "" && len(k.Serial) == 0 && len(k.Rules) == 0)
}

// Clone deep-copies the knowledge.
func (k *Knowledge) Clone() *Knowledge {
	if k == nil {
		return nil
	}
	out := &Knowledge{Text: k.Text}
	out.Serial = append([]SerialDirective(nil), k.Serial...)
	out.Rules = append([]Rule(nil), k.Rules...)
	return out
}

// ActionKind is a serialization directive action.
type ActionKind string

const (
	// ActionIgnore drops the attribute from the serialized record
	// ("product prices can be disregarded").
	ActionIgnore ActionKind = "ignore"
	// ActionEmphasize doubles the attribute's feature weight ("primary
	// identifiers are the product's model numbers").
	ActionEmphasize ActionKind = "emphasize"
	// ActionNormalizeMissing maps nan/N/A/empty values of the attribute (or
	// of all attributes when Attr is empty) to a canonical missing marker
	// ("in case of missing or NaN values, focus on other attributes").
	ActionNormalizeMissing ActionKind = "normalize-missing"
)

// SerialDirective rewrites the record serialization before encoding.
// An empty Attr applies the directive to every attribute.
type SerialDirective struct {
	Action ActionKind
	Attr   string
}

// PredKind is a rule condition predicate over an instance.
type PredKind string

const (
	// PredContains fires when the scoped value contains Arg as a substring
	// (case-insensitive).
	PredContains PredKind = "contains"
	// PredMissing fires when the scoped value is missing (nan, n/a, empty).
	PredMissing PredKind = "missing"
	// PredNotMissing is the negation of PredMissing.
	PredNotMissing PredKind = "not-missing"
	// PredFormat fires when the scoped value matches the named format
	// detector (Arg: one of the Format* constants).
	PredFormat PredKind = "format"
	// PredNotFormat is the negation of PredFormat.
	PredNotFormat PredKind = "not-format"
	// PredSharedModelToken fires on pair instances when both entities share
	// an alphanumeric model-number-like token.
	PredSharedModelToken PredKind = "shared-model-token"
	// PredNoSharedModelToken is the negation of PredSharedModelToken.
	PredNoSharedModelToken PredKind = "no-shared-model-token"
	// PredAttrEqual fires on pair instances when the scoped attribute has
	// (nearly) equal non-missing values on both sides.
	PredAttrEqual PredKind = "attr-equal"
	// PredNotInRange fires when the scoped attribute has values and none
	// parses as a number inside [lo,hi] given by Arg "lo..hi".
	PredNotInRange PredKind = "not-in-range"
	// PredAlways fires unconditionally (used for default-answer rules).
	PredAlways PredKind = "always"
	// PredInDict fires when the scoped value is (case-insensitively) in the
	// comma-separated dictionary Arg.
	PredInDict PredKind = "in-dict"
	// PredNotInDict fires when the scoped value is non-missing, absent from
	// the dictionary, and within edit distance 2 of some dictionary entry
	// (i.e. it looks like a misspelling of a known value).
	PredNotInDict PredKind = "not-in-dict"
)

// Format detector names for PredFormat/TransformDateISO.
const (
	FormatDecimal  = "decimal"   // plain decimal in [0,1) style: 0.05
	FormatInteger  = "integer"   // digits only
	FormatPercent  = "percent"   // contains %
	FormatDateISO  = "date-iso"  // YYYY-MM-DD
	FormatDateAny  = "date-any"  // ISO or m/d/y
	FormatTimeAMPM = "time-ampm" // 7:10 a.m. style
	FormatISSN     = "issn"      // dddd-dddd
	FormatNumeric  = "numeric"   // parses as a float
)

// Condition is a predicate evaluated against an instance. Attr scopes it to
// one attribute; empty Attr means the instance's target attribute.
type Condition struct {
	Pred PredKind
	Attr string
	Arg  string
}

// TransformKind computes a rule's supported answer from the instance.
type TransformKind string

const (
	// TransformNone: the rule supports the literal answer.
	TransformNone TransformKind = ""
	// TransformStripPercent supports the target value with '%' removed.
	TransformStripPercent TransformKind = "strip-percent"
	// TransformStripSymbols supports the target value with non-alphanumeric
	// characters (except . and space) removed.
	TransformStripSymbols TransformKind = "strip-symbols"
	// TransformDateISO supports the target value re-rendered as YYYY-MM-DD.
	TransformDateISO TransformKind = "date-iso"
	// TransformFirstWord supports the first word of attribute Arg.
	TransformFirstWord TransformKind = "first-word"
	// TransformSpellFix supports the dictionary word (Arg: comma-separated
	// dictionary) closest to the target value within edit distance 2.
	TransformSpellFix TransformKind = "spell-fix"
)

// Answer is what a rule supports: either a literal candidate or a transform
// of the instance.
type Answer struct {
	Literal   string
	Transform TransformKind
	Arg       string
}

// Rule is one dataset-informed decision rule: when Cond fires, nudge the
// model toward Answer with the given confidence Weight (0, 1]. A non-empty
// Target restricts the rule to instances asking about that attribute
// (e.g. an AVE rule that only answers "Flavor" questions).
type Rule struct {
	Target string
	Cond   Condition
	Answer Answer
	Weight float64
}

// ---------------------------------------------------------------------------
// Rule evaluation

// IsMissingValue reports whether a cell value is a missing marker. It runs
// on every cell of every example, so an ASCII value is lowered into a stack
// buffer, not a new string.
func IsMissingValue(v string) bool {
	v = strings.TrimSpace(v)
	var buf [len("missing")]byte
	lv, ok := lowerASCII(buf[:], v)
	if !ok {
		if len(v) > len(buf) && isASCII(v) {
			return false // lowering keeps an ASCII value's length: too long for a marker
		}
		lv = []byte(strings.ToLower(v)) // a non-ASCII rune may lower to an ASCII one
	}
	switch string(lv) {
	case "", "nan", "n/a", "na", "null", "none", "missing", "-":
		return true
	}
	return false
}

// lowerASCII writes strings.ToLower(s) into buf and returns it, for an ASCII
// s that fits — there ToLower maps byte for byte. ok is false when s is longer
// than buf or holds a non-ASCII byte.
func lowerASCII(buf []byte, s string) (lower []byte, ok bool) {
	if len(s) > len(buf) {
		return nil, false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return nil, false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return buf[:len(s)], true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// isFloat reports whether strconv.ParseFloat accepts v. Most cells are not
// numbers, and every refusal from ParseFloat allocates its error, so a screen
// turns away first what cannot parse: a string with a byte no float literal,
// "Inf", "Infinity" or "NaN" (any case) uses, or one not opening — after an
// optional sign — with a digit, a point, or the first letter of Inf or NaN.
// FuzzNumberScreen holds isFloat to ParseFloat.
func isFloat(v string) bool {
	s := v
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.', c|0x20 == 'i', c|0x20 == 'n':
	default:
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', c == '.', c == '_', c == '+', c == '-':
		case strings.IndexByte("abcdefinptxy", c|0x20) >= 0:
		default:
			return false
		}
	}
	_, err := strconv.ParseFloat(v, 64)
	return err == nil
}

// MatchesFormat applies the named format detector.
func MatchesFormat(format, v string) bool {
	v = strings.TrimSpace(v)
	switch format {
	case FormatDecimal:
		return strings.Contains(v, ".") && isFloat(v)
	case FormatInteger:
		if v == "" {
			return false
		}
		for i := 0; i < len(v); i++ {
			if v[i] < '0' || v[i] > '9' {
				return false
			}
		}
		return true
	case FormatPercent:
		return strings.Contains(v, "%")
	case FormatDateISO:
		return isISODate(v)
	case FormatDateAny:
		return isISODate(v) || isSlashDate(v)
	case FormatTimeAMPM:
		return isTimeAMPM(v)
	case FormatISSN:
		return isISSN(v)
	case FormatNumeric:
		// Strict: "0.05%" is NOT numeric — validity rules built on this
		// detector must not whitelist percent-contaminated values.
		return isFloat(v)
	default:
		return false
	}
}

func isISODate(v string) bool {
	// YYYY-MM-DD
	if len(v) != 10 || v[4] != '-' || v[7] != '-' {
		return false
	}
	for i, c := range []byte(v) {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// atoiOK reports whether strconv.Atoi would accept s, without paying for
// the error object Atoi allocates on the (common on the serve hot path)
// reject branch.
func atoiOK(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '+' || s[0] == '-' {
		i = 1
	}
	if i == len(s) {
		return false
	}
	if len(s)-i > 18 {
		// Could overflow int64: defer to Atoi for the exact verdict.
		_, err := strconv.Atoi(s)
		return err == nil
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isSlashDate(v string) bool {
	// Exactly three non-empty integer parts separated by '/', scanned in
	// place — this runs per field per example, so no Split allocation.
	first := strings.IndexByte(v, '/')
	if first < 0 {
		return false
	}
	second := strings.IndexByte(v[first+1:], '/')
	if second < 0 {
		return false
	}
	second += first + 1
	if strings.IndexByte(v[second+1:], '/') >= 0 {
		return false
	}
	return atoiOK(v[:first]) && atoiOK(v[first+1:second]) && atoiOK(v[second+1:])
}

func isTimeAMPM(v string) bool {
	// Lowered, v holds "a.m." or "p.m." only if it holds ".m." or ".M.":
	// lowering maps no other rune to an ASCII point or m. Most values fail
	// here, before ToLower allocates.
	if !strings.Contains(v, ".m.") && !strings.Contains(v, ".M.") {
		return false
	}
	lv := strings.ToLower(v)
	if !strings.Contains(lv, "a.m.") && !strings.Contains(lv, "p.m.") {
		return false
	}
	colon := strings.Index(lv, ":")
	if colon <= 0 || colon+2 >= len(lv) {
		return false
	}
	if !atoiOK(strings.TrimSpace(lv[:colon])) {
		return false
	}
	return lv[colon+1] >= '0' && lv[colon+1] <= '9'
}

func isISSN(v string) bool {
	if len(v) != 9 || v[4] != '-' {
		return false
	}
	for i, c := range []byte(v) {
		if i == 4 {
			continue
		}
		ok := (c >= '0' && c <= '9') || (i == 8 && (c == 'x' || c == 'X'))
		if !ok {
			return false
		}
	}
	return true
}

// modelToken reports whether a token looks like a model number: at least 3
// characters mixing letters and digits, or 4+ digits.
func modelToken(t string) bool {
	var hasLetter, hasDigit bool
	digits := 0
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= '0' && c <= '9':
			hasDigit = true
			digits++
		case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			hasLetter = true
		}
	}
	if hasLetter && hasDigit && len(t) >= 3 {
		return true
	}
	return digits >= 4 && !hasLetter
}

// sharedModelToken reports whether the two entity sides of an instance share
// a model-number-like token anywhere in their values.
func sharedModelToken(in *data.Instance) bool {
	sides := map[string]map[string]bool{}
	for _, f := range in.Fields {
		if sides[f.Entity] == nil {
			sides[f.Entity] = map[string]bool{}
		}
		for _, t := range strings.Fields(strings.ToLower(f.Value)) {
			t = strings.Trim(t, ".,()[]")
			if modelToken(t) {
				sides[f.Entity][t] = true
			}
		}
	}
	if len(sides) != 2 {
		return false
	}
	var keys []string
	for k := range sides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	a, b := sides[keys[0]], sides[keys[1]]
	for t := range a {
		if b[t] {
			return true
		}
	}
	return false
}

// scopedValues returns the values the condition's attribute scope selects:
// the target attribute's value by default, or the named attribute on every
// entity side.
func scopedValues(in *data.Instance, attr string) []string {
	if attr == "" {
		attr = in.Target
	}
	if attr == "" {
		// No target: all values.
		var out []string
		for _, f := range in.Fields {
			out = append(out, f.Value)
		}
		return out
	}
	var out []string
	for _, f := range in.Fields {
		if strings.EqualFold(f.Name, attr) {
			out = append(out, f.Value)
		}
	}
	return out
}

// Eval reports whether the condition fires on the instance.
func (c Condition) Eval(in *data.Instance) bool {
	vals := scopedValues(in, c.Attr)
	anyVal := func(f func(string) bool) bool {
		for _, v := range vals {
			if f(v) {
				return true
			}
		}
		return false
	}
	switch c.Pred {
	case PredAlways:
		return true
	case PredContains:
		arg := strings.ToLower(c.Arg)
		return anyVal(func(v string) bool { return strings.Contains(strings.ToLower(v), arg) })
	case PredMissing:
		return anyVal(IsMissingValue)
	case PredNotMissing:
		return len(vals) > 0 && !anyVal(IsMissingValue)
	case PredFormat:
		return anyVal(func(v string) bool { return MatchesFormat(c.Arg, v) })
	case PredNotFormat:
		return len(vals) > 0 && !anyVal(func(v string) bool { return MatchesFormat(c.Arg, v) })
	case PredSharedModelToken:
		return sharedModelToken(in)
	case PredNoSharedModelToken:
		return !sharedModelToken(in)
	case PredAttrEqual:
		return attrPairEqual(in, c.Attr)
	case PredInDict:
		dict := splitDict(c.Arg)
		return anyVal(func(v string) bool { return dict[norm(v)] })
	case PredNotInDict:
		dict := splitDict(c.Arg)
		return anyVal(func(v string) bool {
			if IsMissingValue(v) || dict[norm(v)] {
				return false
			}
			for w := range dict {
				if d := EditDistance(norm(v), w, 24); d > 0 && d <= 2 {
					return true
				}
			}
			return false
		})
	case PredNotInRange:
		lo, hi, ok := parseRange(c.Arg)
		return ok && len(vals) > 0 && !anyVal(func(v string) bool { return inRange(v, lo, hi) })
	default:
		return false
	}
}

// attrPairEqual reports whether a pair instance has attr non-missing on both
// sides with (nearly) equal values.
func attrPairEqual(in *data.Instance, attr string) bool {
	byEntity := map[string]string{}
	for _, f := range in.Fields {
		if strings.EqualFold(f.Name, attr) && f.Entity != "" {
			byEntity[f.Entity] = f.Value
		}
	}
	if len(byEntity) != 2 {
		return false
	}
	var vals []string
	for _, v := range byEntity {
		if IsMissingValue(v) {
			return false
		}
		vals = append(vals, normalizeLoose(v))
	}
	return vals[0] == vals[1]
}

func normalizeLoose(v string) string {
	return strings.Join(strings.Fields(strings.ToLower(v)), " ")
}

func splitDict(arg string) map[string]bool {
	out := map[string]bool{}
	for _, w := range strings.Split(arg, ",") {
		if w = norm(w); w != "" {
			out[w] = true
		}
	}
	return out
}

func parseRange(arg string) (lo, hi float64, ok bool) {
	parts := strings.SplitN(arg, "..", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	lo, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	hi, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	return lo, hi, err1 == nil && err2 == nil
}

func inRange(v string, lo, hi float64) bool {
	x, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "%")), 64)
	return err == nil && x >= lo && x <= hi
}

// Resolve computes the concrete answer string a rule supports on an
// instance; ok is false when the transform is inapplicable.
func (a Answer) Resolve(in *data.Instance) (string, bool) {
	target := ""
	if in.Target != "" {
		target = in.FieldValue(in.Target)
	}
	switch a.Transform {
	case TransformNone:
		return a.Literal, a.Literal != ""
	case TransformStripPercent:
		if !strings.Contains(target, "%") {
			return "", false
		}
		return strings.TrimSpace(strings.ReplaceAll(target, "%", "")), true
	case TransformStripSymbols:
		var sb strings.Builder
		for _, r := range target {
			if r == ' ' || r == '.' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
				sb.WriteRune(r)
			}
		}
		out := strings.TrimSpace(sb.String())
		return out, out != "" && out != target
	case TransformDateISO:
		return dateToISO(target)
	case TransformFirstWord:
		src := target
		if a.Arg != "" {
			src = in.FieldValue(a.Arg)
		}
		fields := strings.Fields(src)
		if len(fields) == 0 {
			return "", false
		}
		return fields[0], true
	case TransformSpellFix:
		dict := strings.Split(a.Arg, ",")
		best, bestDist := "", 3
		for _, w := range dict {
			w = strings.TrimSpace(w)
			if w == "" {
				continue
			}
			d := EditDistance(strings.ToLower(target), strings.ToLower(w), 24)
			if d > 0 && d < bestDist {
				best, bestDist = w, d
			}
		}
		return best, best != ""
	default:
		return "", false
	}
}

func dateToISO(v string) (string, bool) {
	if isISODate(v) {
		return v, true
	}
	parts := strings.Split(strings.TrimSpace(v), "/")
	if len(parts) != 3 {
		return "", false
	}
	m, err1 := strconv.Atoi(parts[0])
	d, err2 := strconv.Atoi(parts[1])
	y, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return "", false
	}
	if y < 100 {
		// Standard two-digit-year pivot: 70–99 → 1900s, 00–69 → 2000s.
		if y >= 70 {
			y += 1900
		} else {
			y += 2000
		}
	}
	return fmtISO(y, m, d), true
}

func fmtISO(y, m, d int) string {
	pad := func(n, w int) string {
		s := strconv.Itoa(n)
		for len(s) < w {
			s = "0" + s
		}
		return s
	}
	return pad(y, 4) + "-" + pad(m, 2) + "-" + pad(d, 2)
}

// EditDistance is the byte-wise Levenshtein distance of a and b under a
// length budget: when either string is longer than budget bytes it skips
// the table and returns 0 for equal strings, budget+1 otherwise.
func EditDistance(a, b string, budget int) int {
	if len(a) > budget || len(b) > budget {
		if a == b {
			return 0
		}
		return budget + 1
	}
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
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
	return prev[lb]
}

// Hints computes the per-candidate hint vector of the knowledge's rules on
// an instance into dst's backing array (grown if short) and returns it:
// hint[k] = Σ weight of rules whose condition fires and whose resolved
// answer equals candidate k (case-insensitive). The model adds
// ruleTrust·hint[k] to candidate scores; see internal/model.
func (k *Knowledge) Hints(dst []float64, in *data.Instance) []float64 {
	hints := append(dst[:0], make([]float64, len(in.Candidates))...)
	if k == nil || len(k.Rules) == 0 {
		return hints
	}
	for _, r := range k.Rules {
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
		la := strings.ToLower(strings.TrimSpace(ans))
		for i, c := range in.Candidates {
			if strings.ToLower(strings.TrimSpace(c)) == la {
				hints[i] += r.Weight
			}
		}
	}
	return hints
}

// ApplySerial rewrites one instance field according to the knowledge's
// serialization directives: the field as it is encoded, its weight, and
// false when a directive drops it. The caller encodes each kept field with
// its weight, in the instance's order.
func (k *Knowledge) ApplySerial(f data.Field) (data.Field, float64, bool) {
	w := 1.0
	if k == nil {
		return f, w, true
	}
	drop := false
	for _, d := range k.Serial {
		if d.Attr != "" && !strings.EqualFold(d.Attr, f.Name) {
			continue
		}
		switch d.Action {
		case ActionIgnore:
			drop = true
		case ActionEmphasize:
			w *= 2
		case ActionNormalizeMissing:
			if IsMissingValue(f.Value) {
				f.Value = "missingvalue"
			}
		}
	}
	return f, w, !drop
}
