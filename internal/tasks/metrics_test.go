package tasks

import (
	"math"
	"testing"
)

func TestAccuracy(t *testing.T) {
	if got := Score(MetricAccuracy, []string{"a", "B", "c"}, []string{"a", "b", "x"}); math.Abs(got-66.666) > 0.01 {
		t.Fatalf("accuracy = %v", got)
	}
	m := NewMetric(MetricAccuracy)
	if m.Score() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestBinaryF1(t *testing.T) {
	// tp=1 (yes/yes), fp=1 (yes/no), fn=1 (no/yes), tn=1.
	got := Score(MetricBinaryF1,
		[]string{"yes", "yes", "no", "no"},
		[]string{"yes", "no", "yes", "no"})
	want := 100 * 2.0 / 4.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("binary F1 = %v, want %v", got, want)
	}
	// Case-insensitive.
	if Score(MetricBinaryF1, []string{"Yes"}, []string{"yes"}) != 100 {
		t.Fatal("binary F1 should normalize case")
	}
	// All-negative predictions with all-negative gold: degenerate 0 (no positives).
	if Score(MetricBinaryF1, []string{"no"}, []string{"no"}) != 0 {
		t.Fatal("no positives anywhere → denominator empty → 0 by convention")
	}
}

func TestMicroF1EqualsAccuracyForSingleLabel(t *testing.T) {
	preds := []string{"country", "event", "price", "country"}
	golds := []string{"country", "price", "price", "locality"}
	micro := Score(MetricMicroF1, preds, golds)
	acc := Score(MetricAccuracy, preds, golds)
	if math.Abs(micro-acc) > 1e-9 {
		t.Fatalf("single-label micro-F1 %v should equal accuracy %v", micro, acc)
	}
}

func TestValueF1(t *testing.T) {
	// tp: correct extraction; fp+fn: wrong value on non-na gold;
	// fn: predicted n/a on real value; neither: both n/a.
	got := Score(MetricValueF1,
		[]string{"red", "blue", "n/a", "n/a"},
		[]string{"red", "green", "green", "n/a"})
	// tp=1, fp=1 (blue), fn=2 (blue-miss + abstain) → F1 = 2/(2+1+2)=0.4
	want := 100 * 2.0 / 5.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("value F1 = %v, want %v", got, want)
	}
	// Predicting a value when gold is n/a is a pure FP.
	got = Score(MetricValueF1, []string{"x"}, []string{"n/a"})
	if got != 0 {
		t.Fatalf("hallucinated value should score 0, got %v", got)
	}
	// Perfect abstention on all-n/a gold: vacuous 0 denominator.
	if Score(MetricValueF1, []string{"n/a"}, []string{"n/a"}) != 0 {
		t.Fatal("degenerate all-n/a case should be 0")
	}
}

func TestScorePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Score(MetricAccuracy, []string{"a"}, nil)
}

func TestNewMetricUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMetric(MetricKind("bogus"))
}

func TestSpecForAllKinds(t *testing.T) {
	for _, k := range All() {
		s := SpecFor(k)
		if s.Description == "" || s.Question == "" || s.Metric == "" {
			t.Errorf("incomplete spec for %s: %+v", k, s)
		}
	}
}

func TestKindClassification(t *testing.T) {
	if !EM.IsBinary() || !SM.IsBinary() || !ED.IsBinary() {
		t.Fatal("EM/SM/ED are binary")
	}
	if CTA.IsBinary() {
		t.Fatal("CTA is multi-class")
	}
}
