package tasks

import (
	"strings"
	"testing"

	"repro/internal/data"
)

func pairInstance() *data.Instance {
	return &data.Instance{
		Fields: []data.Field{
			{Entity: "A", Name: "title", Value: "Acme Blender BX-200"},
			{Entity: "A", Name: "price", Value: "49.99"},
			{Entity: "B", Name: "title", Value: "acme bx-200 blender silver"},
			{Entity: "B", Name: "price", Value: "59.99"},
		},
		Candidates: []string{AnswerYes, AnswerNo},
		Gold:       0,
	}
}

func TestBuildExampleBasics(t *testing.T) {
	in := edInstance("abv", "0.05%", data.Field{Name: "beer_name", Value: "Hop Storm"})
	ex := BuildExample(SpecFor(ED), in, nil)
	if len(ex.Candidates) != 2 || ex.Gold != 0 {
		t.Fatalf("candidates/gold wrong: %+v", ex)
	}
	if len(ex.Hints) != 2 || ex.Hints[0] != 0 {
		t.Fatalf("nil knowledge should give zero hints: %v", ex.Hints)
	}
	if len(ex.Segments) == 0 {
		t.Fatal("no segments built")
	}
	if !strings.Contains(ex.Prompt, "abv") {
		t.Fatalf("prompt should mention the target attribute:\n%s", ex.Prompt)
	}
}

// Knowledge must genuinely change both the prompt text and the segments.
func TestKnowledgeChangesPrompt(t *testing.T) {
	in := edInstance("abv", "0.05%")
	k := &Knowledge{Text: "The ABV attribute must be a decimal value between 0 and 1, without a % symbol."}
	plain := BuildExample(SpecFor(ED), in, nil)
	aug := BuildExample(SpecFor(ED), in, k)
	if plain.Prompt == aug.Prompt {
		t.Fatal("knowledge text must appear in the prompt")
	}
	if len(aug.Segments) <= len(plain.Segments) {
		t.Fatal("knowledge must add segments")
	}
}

func TestFormatSignatureSegmentsPresent(t *testing.T) {
	in := edInstance("created", "4/3/15")
	ex := BuildExample(SpecFor(ED), in, nil)
	found := false
	for _, s := range ex.Segments {
		if strings.HasPrefix(s.Field, "fmt.") && strings.Contains(s.Text, "slashdate") {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a slashdate format-signature segment")
	}
}

func TestAlignSegmentsForPairs(t *testing.T) {
	ex := BuildExample(SpecFor(EM), pairInstance(), nil)
	var hasOverlap, hasModelToken, hasPriceAlign bool
	for _, s := range ex.Segments {
		switch s.Field {
		case "align.overlap":
			hasOverlap = true
		case "align.modeltoken":
			hasModelToken = s.Text == "shared"
		case "align.price":
			hasPriceAlign = s.Text == "differ"
		}
	}
	if !hasOverlap || !hasModelToken || !hasPriceAlign {
		t.Fatalf("missing alignment segments: overlap=%v modeltoken=%v price=%v",
			hasOverlap, hasModelToken, hasPriceAlign)
	}
}

func TestAlignSegmentsAbsentForSingleRecord(t *testing.T) {
	in := edInstance("abv", "0.05")
	ex := BuildExample(SpecFor(ED), in, nil)
	for _, s := range ex.Segments {
		if strings.HasPrefix(s.Field, "align.") {
			t.Fatalf("single-record instance should have no alignment segments, got %q", s.Field)
		}
	}
}

func TestIgnoreDirectiveRemovesAttrFromSegments(t *testing.T) {
	k := &Knowledge{Serial: []SerialDirective{{Action: ActionIgnore, Attr: "price"}}}
	ex := BuildExample(SpecFor(EM), pairInstance(), k)
	for _, s := range ex.Segments {
		if s.Field == "A.price" || s.Field == "B.price" {
			t.Fatal("ignored attribute must not be serialized")
		}
	}
}

func TestRenderKnowledgeText(t *testing.T) {
	k := &Knowledge{
		Text:   "Focus on identifiers.",
		Serial: []SerialDirective{{Action: ActionIgnore, Attr: "price"}},
		Rules: []Rule{
			{Cond: Condition{Pred: PredFormat, Arg: FormatPercent}, Answer: Answer{Literal: AnswerYes}, Weight: 1},
			{Cond: Condition{Pred: PredMissing, Attr: "desc"}, Answer: Answer{Transform: TransformFirstWord, Arg: "maker"}, Weight: 1},
		},
	}
	txt := RenderKnowledgeText(k)
	for _, want := range []string{"Focus on identifiers.", "price", "format percent", "desc", "maker"} {
		if !strings.Contains(txt, want) {
			t.Errorf("rendered knowledge missing %q:\n%s", want, txt)
		}
	}
}

func TestKnowledgeClone(t *testing.T) {
	k := &Knowledge{Text: "t", Rules: []Rule{{Weight: 1}}}
	c := k.Clone()
	c.Rules[0].Weight = 2
	c.Text = "changed"
	if k.Rules[0].Weight != 1 || k.Text != "t" {
		t.Fatal("Clone must deep-copy")
	}
	var nilK *Knowledge
	if nilK.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
	if !nilK.Empty() || !(&Knowledge{}).Empty() {
		t.Fatal("Empty misbehaves")
	}
}
