package tasks

import (
	"strings"
	"testing"

	"repro/internal/data"
)

func edInstance(attr, value string, other ...data.Field) *data.Instance {
	fields := append([]data.Field{{Name: attr, Value: value}}, other...)
	return &data.Instance{
		Fields:     fields,
		Target:     attr,
		Candidates: []string{AnswerYes, AnswerNo},
		Gold:       0,
	}
}

func TestIsMissingValue(t *testing.T) {
	for _, v := range []string{"", "nan", "NaN", "N/A", " null ", "none", "-"} {
		if !IsMissingValue(v) {
			t.Errorf("IsMissingValue(%q) = false, want true", v)
		}
	}
	for _, v := range []string{"0", "abc", "nanometer", "na-2"} {
		if IsMissingValue(v) {
			t.Errorf("IsMissingValue(%q) = true, want false", v)
		}
	}
}

func TestMatchesFormat(t *testing.T) {
	cases := []struct {
		format, v string
		want      bool
	}{
		{FormatDecimal, "0.05", true},
		{FormatDecimal, "5", false},
		{FormatDecimal, "0.05%", false},
		{FormatInteger, "42", true},
		{FormatInteger, "4.2", false},
		{FormatPercent, "0.05%", true},
		{FormatPercent, "0.05", false},
		{FormatDateISO, "2015-04-03", true},
		{FormatDateISO, "4/3/15", false},
		{FormatDateAny, "4/3/15", true},
		{FormatDateAny, "april third", false},
		{FormatTimeAMPM, "7:10 a.m.", true},
		{FormatTimeAMPM, "19:10", false},
		{FormatISSN, "1234-5678", true},
		{FormatISSN, "1234-567", false},
		{FormatISSN, "1234-567X", true},
		{FormatNumeric, "3.14", true},
		{FormatNumeric, "85%", false}, // strict: % contaminates numerics
		{FormatNumeric, "pi", false},
	}
	for _, c := range cases {
		if got := MatchesFormat(c.format, c.v); got != c.want {
			t.Errorf("MatchesFormat(%q, %q) = %v, want %v", c.format, c.v, got, c.want)
		}
	}
}

func TestConditionEval(t *testing.T) {
	in := edInstance("abv", "0.05%", data.Field{Name: "ibu", Value: "nan"})
	cases := []struct {
		cond Condition
		want bool
	}{
		{Condition{Pred: PredAlways}, true},
		{Condition{Pred: PredContains, Arg: "%"}, true},
		{Condition{Pred: PredContains, Arg: "x"}, false},
		{Condition{Pred: PredMissing}, false},
		{Condition{Pred: PredMissing, Attr: "ibu"}, true},
		{Condition{Pred: PredNotMissing}, true},
		{Condition{Pred: PredFormat, Arg: FormatPercent}, true},
		{Condition{Pred: PredNotFormat, Arg: FormatDecimal}, true},
		{Condition{Pred: PredNotInRange, Attr: "abv", Arg: "0.5..1"}, true},
	}
	for _, c := range cases {
		if got := c.cond.Eval(in); got != c.want {
			t.Errorf("Eval(%+v) = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestSharedModelTokenPredicate(t *testing.T) {
	match := &data.Instance{
		Fields: []data.Field{
			{Entity: "A", Name: "title", Value: "Acme Blender BX-200 silver"},
			{Entity: "B", Name: "title", Value: "acme bx-200 blender"},
		},
		Candidates: []string{AnswerYes, AnswerNo},
	}
	if !(Condition{Pred: PredSharedModelToken}).Eval(match) {
		t.Fatal("expected shared model token")
	}
	nomatch := &data.Instance{
		Fields: []data.Field{
			{Entity: "A", Name: "title", Value: "Acme Blender BX-200"},
			{Entity: "B", Name: "title", Value: "acme toaster TK-999"},
		},
		Candidates: []string{AnswerYes, AnswerNo},
	}
	if (Condition{Pred: PredSharedModelToken}).Eval(nomatch) {
		t.Fatal("unexpected shared model token")
	}
	if !(Condition{Pred: PredNoSharedModelToken}).Eval(nomatch) {
		t.Fatal("negation should fire")
	}
}

func TestAttrEqualDiffer(t *testing.T) {
	in := &data.Instance{
		Fields: []data.Field{
			{Entity: "A", Name: "brand", Value: "Apple"},
			{Entity: "B", Name: "brand", Value: "apple"},
			{Entity: "A", Name: "price", Value: "99"},
			{Entity: "B", Name: "price", Value: "120"},
			{Entity: "A", Name: "desc", Value: "nan"},
			{Entity: "B", Name: "desc", Value: "a phone"},
		},
		Candidates: []string{AnswerYes, AnswerNo},
	}
	if !(Condition{Pred: PredAttrEqual, Attr: "brand"}).Eval(in) {
		t.Fatal("brand should be equal (case-insensitive)")
	}
	if (Condition{Pred: PredAttrEqual, Attr: "price"}).Eval(in) {
		t.Fatal("price differs, so it is not equal")
	}
	// Missing on one side → not equal.
	if (Condition{Pred: PredAttrEqual, Attr: "desc"}).Eval(in) {
		t.Fatal("a missing side must not count as equal")
	}
}

func TestAnswerTransforms(t *testing.T) {
	in := edInstance("abv", "0.05%")
	got, ok := Answer{Transform: TransformStripPercent}.Resolve(in)
	if !ok || got != "0.05" {
		t.Fatalf("strip-percent = %q, %v", got, ok)
	}
	in2 := edInstance("created", "4/3/15")
	got, ok = Answer{Transform: TransformDateISO}.Resolve(in2)
	if !ok || got != "2015-04-03" {
		t.Fatalf("date-iso = %q, %v", got, ok)
	}
	in3 := edInstance("name", "Trinketbag Tasli Green Necklace")
	got, ok = Answer{Transform: TransformFirstWord}.Resolve(in3)
	if !ok || got != "Trinketbag" {
		t.Fatalf("first-word = %q, %v", got, ok)
	}
	in4 := edInstance("city", "San Fransico")
	got, ok = Answer{Transform: TransformSpellFix, Arg: "San Francisco,Portland,Denver"}.Resolve(in4)
	if !ok || got != "San Francisco" {
		t.Fatalf("spell-fix = %q, %v", got, ok)
	}
	if _, ok := (Answer{Transform: TransformStripPercent}).Resolve(edInstance("x", "plain")); ok {
		t.Fatal("strip-percent on value without % should be inapplicable")
	}
}

func TestKnowledgeHints(t *testing.T) {
	k := &Knowledge{
		Rules: []Rule{
			{Cond: Condition{Pred: PredFormat, Arg: FormatPercent}, Answer: Answer{Literal: AnswerYes}, Weight: 1},
			{Cond: Condition{Pred: PredMissing}, Answer: Answer{Literal: AnswerYes}, Weight: 0.5},
		},
	}
	in := edInstance("abv", "0.05%")
	h := k.Hints(in)
	if h[0] != 1 || h[1] != 0 {
		t.Fatalf("hints = %v, want [1 0]", h)
	}
	clean := edInstance("abv", "0.05")
	h = k.Hints(clean)
	if h[0] != 0 || h[1] != 0 {
		t.Fatalf("hints on clean value = %v, want zeros", h)
	}
	// Nil knowledge yields zero hints of the right length.
	var nilK *Knowledge
	h = nilK.Hints(in)
	if len(h) != 2 || h[0] != 0 || h[1] != 0 {
		t.Fatalf("nil knowledge hints = %v", h)
	}
}

func TestApplySerial(t *testing.T) {
	k := &Knowledge{
		Serial: []SerialDirective{
			{Action: ActionIgnore, Attr: "price"},
			{Action: ActionEmphasize, Attr: "model"},
			{Action: ActionNormalizeMissing},
		},
	}
	fields := []data.Field{
		{Name: "model", Value: "BX-200"},
		{Name: "price", Value: "99.99"},
		{Name: "desc", Value: "nan"},
	}
	out, w := k.ApplySerial(fields)
	if len(out) != 2 {
		t.Fatalf("price should be dropped, got %d fields", len(out))
	}
	if out[0].Name != "model" || w[0] != 2 {
		t.Fatalf("model should be emphasized: %+v, %v", out[0], w[0])
	}
	if out[1].Value != "missingvalue" {
		t.Fatalf("nan should be normalized, got %q", out[1].Value)
	}
	// Nil knowledge: identity.
	var nilK *Knowledge
	out, w = nilK.ApplySerial(fields)
	if len(out) != 3 || w[0] != 1 {
		t.Fatalf("nil knowledge should be identity: %d fields", len(out))
	}
}

func TestEditDistance(t *testing.T) {
	long := strings.Repeat("a", 30)
	cases := []struct {
		a, b   string
		budget int
		want   int
	}{
		{"", "", 24, 0},
		{"abc", "abc", 24, 0},
		{"kitten", "sitting", 24, 3},
		{"fransico", "francisco", 24, 2},
		// Over budget: equal strings are 0, any other pair budget+1.
		{long, long, 24, 0},
		{long, long[1:] + "b", 24, 25},
		{long, "a", 24, 25},
		// The same pair inside a larger budget gets the real distance.
		{long, long[1:] + "b", 32, 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b, c.budget); got != c.want {
			t.Errorf("EditDistance(%q, %q, %d) = %d, want %d", c.a, c.b, c.budget, got, c.want)
		}
	}
}
