package datagen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/tasks"
)

const testScale = 0.05

func allBundles(t *testing.T) []*Bundle {
	t.Helper()
	return append(Downstream(1, testScale), Upstream(1, testScale)...)
}

func TestEveryDatasetGenerates(t *testing.T) {
	bundles := allBundles(t)
	if len(bundles) != 25 {
		t.Fatalf("expected 25 datasets, got %d", len(bundles))
	}
	for _, b := range bundles {
		if len(b.DS.Train) == 0 || len(b.DS.Test) == 0 {
			t.Errorf("%s: empty split train=%d test=%d", b.Key(), len(b.DS.Train), len(b.DS.Test))
		}
		if b.Seed == nil {
			t.Errorf("%s: missing seed knowledge", b.Key())
		}
	}
}

func TestInstanceWellFormed(t *testing.T) {
	for _, b := range allBundles(t) {
		for _, in := range append(append([]*data.Instance{}, b.DS.Train...), b.DS.Test...) {
			if len(in.Candidates) < 2 {
				t.Fatalf("%s %s: fewer than 2 candidates: %v", b.Key(), in.ID, in.Candidates)
			}
			if in.Gold < 0 || in.Gold >= len(in.Candidates) {
				t.Fatalf("%s %s: gold index %d out of range (%d candidates)", b.Key(), in.ID, in.Gold, len(in.Candidates))
			}
			if in.GoldText() == "" {
				t.Fatalf("%s %s: empty gold text", b.Key(), in.ID)
			}
			if len(in.Fields) == 0 {
				t.Fatalf("%s %s: no fields", b.Key(), in.ID)
			}
			// Candidates must be unique modulo case so prediction is well defined.
			seen := map[string]bool{}
			for _, c := range in.Candidates {
				lc := strings.ToLower(strings.TrimSpace(c))
				if seen[lc] {
					t.Fatalf("%s %s: duplicate candidate %q in %v", b.Key(), in.ID, c, in.Candidates)
				}
				seen[lc] = true
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Downstream(42, testScale)
	b := Downstream(42, testScale)
	// A dataset generated alone is the one its table generates.
	for _, bundle := range append(Downstream(42, testScale), Upstream(42, testScale)...) {
		if alone := ByKey(bundle.Key(), 42, testScale); !reflect.DeepEqual(alone, bundle) {
			t.Errorf("ByKey(%s) differs from its table's bundle", bundle.Key())
		}
	}
	for i := range a {
		if len(a[i].DS.Train) != len(b[i].DS.Train) {
			t.Fatalf("%s: nondeterministic size", a[i].Key())
		}
		for j := range a[i].DS.Train {
			x, y := a[i].DS.Train[j], b[i].DS.Train[j]
			if x.GoldText() != y.GoldText() || len(x.Fields) != len(y.Fields) {
				t.Fatalf("%s[%d]: nondeterministic instance", a[i].Key(), j)
			}
			for f := range x.Fields {
				if x.Fields[f] != y.Fields[f] {
					t.Fatalf("%s[%d]: field mismatch %v vs %v", a[i].Key(), j, x.Fields[f], y.Fields[f])
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := ByKey("EM/Abt-Buy", 1, testScale)
	b := ByKey("EM/Abt-Buy", 2, testScale)
	same := 0
	n := len(a.DS.Train)
	if len(b.DS.Train) < n {
		n = len(b.DS.Train)
	}
	for i := 0; i < n; i++ {
		if data.RenderRecord(a.DS.Train[i].Fields) == data.RenderRecord(b.DS.Train[i].Fields) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical data")
	}
}

func TestBinaryTasksHaveBothClasses(t *testing.T) {
	for _, b := range allBundles(t) {
		if !b.Kind.IsBinary() {
			continue
		}
		pos, neg := 0, 0
		for _, in := range b.DS.Train {
			if in.GoldText() == tasks.AnswerYes {
				pos++
			} else {
				neg++
			}
		}
		if pos == 0 || neg == 0 {
			t.Errorf("%s: degenerate class balance pos=%d neg=%d", b.Key(), pos, neg)
		}
	}
}

func TestPositiveRatesRoughlyMatchPaper(t *testing.T) {
	// Spot-check that heavily imbalanced upstream datasets stay imbalanced.
	b := ByKey("EM/Amazon-Google", 3, 0.3)
	pos := 0
	for _, in := range b.DS.Train {
		if in.GoldText() == tasks.AnswerYes {
			pos++
		}
	}
	rate := float64(pos) / float64(len(b.DS.Train))
	if rate > 0.3 {
		t.Errorf("Amazon-Google positive rate %v should be low (paper: ~0.10)", rate)
	}
}

func TestBeerEDTraps(t *testing.T) {
	b := ByKey("ED/Beer", 5, 0.3)
	var percentErrors, cleanAbbrevs int
	for _, in := range append(b.DS.Train, b.DS.Test...) {
		if in.Target == "abv" && strings.Contains(in.FieldValue("abv"), "%") {
			percentErrors++
			if in.GoldText() != tasks.AnswerYes {
				t.Fatal("ABV with %% must always be an error (planted rule)")
			}
		}
		if in.Target == "city" && in.GoldText() == tasks.AnswerNo {
			v := in.FieldValue("city")
			if strings.HasSuffix(v, ".") || v == strings.ToUpper(v) {
				cleanAbbrevs++
			}
		}
	}
	if percentErrors == 0 {
		t.Fatal("no ABV-percent errors generated")
	}
	if cleanAbbrevs == 0 {
		t.Fatal("no benign city abbreviations generated (the Beer trap)")
	}
}

func TestRayyanZeroIssueIsValid(t *testing.T) {
	b := ByKey("ED/Rayyan", 6, 0.3)
	zeroClean := 0
	for _, in := range append(b.DS.Train, b.DS.Test...) {
		if in.Target == "article_jissue" && in.FieldValue("article_jissue") == "0" {
			if in.GoldText() != tasks.AnswerNo {
				t.Fatal("issue 0 must be valid (planted trap)")
			}
			zeroClean++
		}
	}
	if zeroClean == 0 {
		t.Fatal("no zero-issue records generated")
	}
}

func TestDCGoldRecoverable(t *testing.T) {
	for _, key := range []string{"DC/Rayyan", "DC/Beer"} {
		b := ByKey(key, 7, testScale)
		for _, in := range b.DS.Train {
			if in.Gold < 0 {
				t.Fatalf("%s %s: gold missing from candidates", key, in.ID)
			}
			// Missing-valued targets must expect the -1 convention.
			if tasks.IsMissingValue(in.FieldValue(in.Target)) && in.GoldText() != "-1" {
				t.Fatalf("%s %s: missing value should expect -1, got %q", key, in.ID, in.GoldText())
			}
		}
	}
}

func TestDIBrandInCandidates(t *testing.T) {
	b := ByKey("DI/Flipkart", 8, testScale)
	for _, in := range b.DS.Train {
		if in.Gold < 0 {
			t.Fatalf("gold brand %q missing from candidates %v", in.GoldText(), in.Candidates)
		}
		// Target field must be masked.
		if in.FieldValue("brand") != "nan" {
			t.Fatalf("DI target should be masked, got %q", in.FieldValue("brand"))
		}
	}
}

func TestCTAUsesFullLabelSpace(t *testing.T) {
	b := ByKey("CTA/SOTAB", 9, 1)
	seen := map[string]bool{}
	for _, in := range b.DS.Train {
		if len(in.Candidates) != len(sotabTypes) {
			t.Fatalf("CTA candidates should be the full label space, got %d", len(in.Candidates))
		}
		seen[in.GoldText()] = true
	}
	if len(seen) < len(sotabTypes)-2 {
		t.Fatalf("train covers only %d of %d types", len(seen), len(sotabTypes))
	}
}

func TestAVEGoldIsSpanOrNA(t *testing.T) {
	for _, key := range []string{"AVE/AE-110k", "AVE/OA-mine"} {
		b := ByKey(key, 10, testScale)
		nas := 0
		for _, in := range b.DS.Train {
			gold := in.GoldText()
			if gold == tasks.AnswerNA {
				nas++
				continue
			}
			title := strings.ToLower(in.FieldValue("title"))
			if !strings.Contains(title, strings.ToLower(gold)) {
				t.Fatalf("%s: gold %q not a span of title %q", key, gold, title)
			}
		}
		if nas == 0 {
			t.Fatalf("%s: no n/a golds generated", key)
		}
	}
}

func TestRestaurantAreaCodeRule(t *testing.T) {
	b := ByKey("DI/Restaurant", 11, testScale)
	for _, in := range b.DS.Train {
		phone := in.FieldValue("phone")
		area := phone[:3]
		if areaCodeOf(in.GoldText()) != area {
			t.Fatalf("area code %s does not encode city %s", area, in.GoldText())
		}
	}
}

func TestGeneralCorpus(t *testing.T) {
	corpus := GeneralCorpus(3, 500, true)
	if len(corpus) != 500 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	kinds := map[tasks.Kind]int{}
	withKnowledge := 0
	for _, ex := range corpus {
		kinds[ex.Kind]++
		if ex.Knowledge != nil {
			withKnowledge++
			if len(ex.Knowledge.Rules) == 0 {
				t.Fatal("rule-following example without rules")
			}
		}
		if ex.Instance.Gold < 0 || ex.Instance.Gold >= len(ex.Instance.Candidates) {
			t.Fatalf("bad gold in general corpus: %+v", ex.Instance)
		}
	}
	for _, k := range []tasks.Kind{tasks.EM, tasks.ED, tasks.AVE, tasks.CTA} {
		if kinds[k] == 0 {
			t.Errorf("general corpus missing kind %s", k)
		}
	}
	if withKnowledge < 50 {
		t.Errorf("too few rule-following examples: %d", withKnowledge)
	}
}

func TestRuleFollowingHintsMostlyCorrect(t *testing.T) {
	corpus := GeneralCorpus(4, 2000, true)
	correct, total := 0, 0
	for _, ex := range corpus {
		if ex.Knowledge == nil {
			continue
		}
		hints := ex.Knowledge.Hints(nil, ex.Instance)
		for k, h := range hints {
			if h > 0 {
				total++
				if k == ex.Instance.Gold {
					correct++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no firing rules in rule-following data")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 || acc > 0.98 {
		t.Fatalf("rule validity should be ~0.92, got %v", acc)
	}
}

func TestByKeyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown dataset")
		}
	}()
	ByKey("XX/Nothing", 1, 1)
}

func TestPaperSizesExposed(t *testing.T) {
	train, test, ok := PaperSizes("ED/Flights")
	if !ok || train != 12256 || test != 2000 {
		t.Fatalf("PaperSizes wrong: %d/%d/%v", train, test, ok)
	}
	samples, positives, ok := PaperUpstreamSize("SM/MIMIC")
	if !ok || samples != 7000 || positives != 11 {
		t.Fatalf("PaperUpstreamSize wrong: %d/%d/%v", samples, positives, ok)
	}
}
