package tasks

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

// randInstance builds an arbitrary instance from fuzz inputs.
func randInstance(rng *rand.Rand) *data.Instance {
	vals := []string{"0.05", "0.05%", "nan", "4/3/15", "2015-04-03", "Springfield", "Sprngfield", "0", "hello world", "1234-5678"}
	attrs := []string{"abv", "city", "date", "issn", "name"}
	nFields := 1 + rng.Intn(4)
	in := &data.Instance{Candidates: []string{AnswerYes, AnswerNo}, Gold: rng.Intn(2)}
	for i := 0; i < nFields; i++ {
		in.Fields = append(in.Fields, data.Field{
			Name:  attrs[rng.Intn(len(attrs))],
			Value: vals[rng.Intn(len(vals))],
		})
	}
	in.Target = in.Fields[0].Name
	return in
}

func randRule(rng *rand.Rand) Rule {
	preds := []PredKind{PredAlways, PredMissing, PredNotMissing, PredContains,
		PredFormat, PredNotFormat, PredInDict, PredNotInDict, PredNotInRange}
	args := []string{"", "%", FormatPercent, FormatDecimal, FormatDateISO, "Springfield,Dover", "0..1"}
	answers := []Answer{
		{Literal: AnswerYes}, {Literal: AnswerNo},
		{Transform: TransformStripPercent}, {Transform: TransformDateISO},
		{Transform: TransformSpellFix, Arg: "Springfield,Dover"},
	}
	return Rule{
		Cond:   Condition{Pred: preds[rng.Intn(len(preds))], Arg: args[rng.Intn(len(args))]},
		Answer: answers[rng.Intn(len(answers))],
		Weight: rng.Float64(),
	}
}

// Property: Hints always has exactly one entry per candidate, every entry
// is non-negative, and entries are bounded by the total rule weight.
func TestHintsInvariant(t *testing.T) {
	f := func(seed int64, nRules uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng)
		k := &Knowledge{}
		var total float64
		for i := 0; i < int(nRules)%8; i++ {
			r := randRule(rng)
			total += r.Weight
			k.Rules = append(k.Rules, r)
		}
		hints := k.Hints(in)
		if len(hints) != len(in.Candidates) {
			return false
		}
		for _, h := range hints {
			if h < 0 || h > total+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: condition evaluation never panics and negated predicates are
// consistent with their positive form on non-missing scoped values.
func TestConditionNegationConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng)
		pos := Condition{Pred: PredFormat, Arg: FormatDecimal}.Eval(in)
		neg := Condition{Pred: PredNotFormat, Arg: FormatDecimal}.Eval(in)
		// They cannot both be true for a single-valued scope; with multiple
		// scoped values both may fire, so only check the single-value case.
		vals := 0
		for _, fl := range in.Fields {
			if fl.Name == in.Target {
				vals++
			}
		}
		if vals == 1 && pos && neg {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every metric stays within [0, 100] for arbitrary prediction
// streams.
func TestMetricBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		answers := []string{AnswerYes, AnswerNo, AnswerNA, "red", "blue", ""}
		for _, kind := range []MetricKind{MetricAccuracy, MetricBinaryF1, MetricMicroF1, MetricValueF1} {
			m := NewMetric(kind)
			for i := 0; i < int(n); i++ {
				m.Add(answers[rng.Intn(len(answers))], answers[rng.Intn(len(answers))])
			}
			s := m.Score()
			if s < 0 || s > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a perfect prediction stream scores 100 on accuracy and, when a
// positive example exists, on binary F1.
func TestMetricPerfect(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		golds := make([]string, int(n)+1)
		for i := range golds {
			if rng.Intn(2) == 0 {
				golds[i] = AnswerYes
			} else {
				golds[i] = AnswerNo
			}
		}
		golds[0] = AnswerYes // guarantee a positive
		if Score(MetricAccuracy, golds, golds) != 100 {
			return false
		}
		return Score(MetricBinaryF1, golds, golds) == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ApplySerial never invents fields and preserves order.
func TestApplySerialInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng)
		k := &Knowledge{Serial: []SerialDirective{
			{Action: ActionIgnore, Attr: "city"},
			{Action: ActionEmphasize, Attr: "abv"},
			{Action: ActionNormalizeMissing},
		}}
		out, w := k.ApplySerial(in.Fields)
		if len(out) != len(w) || len(out) > len(in.Fields) {
			return false
		}
		for _, f := range out {
			if f.Name == "city" {
				return false // ignored attribute leaked
			}
		}
		for _, x := range w {
			if x <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: BuildExample output is internally consistent for arbitrary
// instances and knowledge.
func TestBuildExampleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng)
		k := &Knowledge{Text: "some knowledge"}
		for i := 0; i < rng.Intn(4); i++ {
			k.Rules = append(k.Rules, randRule(rng))
		}
		ex := BuildExample(SpecFor(ED), in, k)
		if len(ex.Hints) != len(ex.Candidates) || ex.Gold != in.Gold {
			return false
		}
		if len(ex.Segments) == 0 || ex.Prompt == "" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
