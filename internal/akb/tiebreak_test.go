package akb

import (
	"testing"

	"repro/internal/data"
	"repro/internal/tasks"
)

func TestInformativeness(t *testing.T) {
	if informativeness(nil) != 0 {
		t.Fatal("nil knowledge has no information")
	}
	k := &tasks.Knowledge{
		Rules: []tasks.Rule{{Weight: 0.8}, {Weight: 0.5}},
		Serial: []tasks.SerialDirective{
			{Action: tasks.ActionIgnore, Attr: "price"},
		},
	}
	want := 0.8 + 0.5 + 0.5
	if got := informativeness(k); got != want {
		t.Fatalf("informativeness = %v, want %v", got, want)
	}
}

// When two candidates tie on the validation metric, the search must keep
// the more informative one — the saturation-breaking behaviour documented
// in Search. All-negative instances make every candidate score identically
// with the fake predictor (it answers "no" unless a rule fires, and the
// percent rule never fires on clean values), forcing a pure tie.
func TestTieBreakPrefersInformativeKnowledge(t *testing.T) {
	var valid []*data.Instance
	for i := 0; i < 10; i++ {
		in := percentInstances(2)[1] // the clean "0.05" negative
		valid = append(valid, in)
	}
	rich := percentRule()
	o := &fakeOracle{perfect: rich, useless: &tasks.Knowledge{Text: "prose only"}}
	res := search(fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(9))
	if res.Best != rich {
		t.Fatal("rule-bearing candidate should win ties over prose-only and nil")
	}
}

func TestSearchDeterministicGivenSeed(t *testing.T) {
	valid := percentInstances(16)
	run := func() float64 {
		o := &fakeOracle{perfect: percentRule(), useless: &tasks.Knowledge{}}
		return search(fakePredictor{}, o, tasks.ED, valid, nil, DefaultConfig(4)).BestScore
	}
	if run() != run() {
		t.Fatal("search must be deterministic given the seed")
	}
}

func TestNormAnswer(t *testing.T) {
	cases := map[string]string{
		"  Yes ":  "yes",
		"NO":      "no",
		"N/A":     "n/a",
		"Red Car": "red car",
	}
	for in, want := range cases {
		if got := normAnswer(in); got != want {
			t.Fatalf("normAnswer(%q) = %q, want %q", in, got, want)
		}
	}
	if !equalAnswer("Yes", "yes ") || equalAnswer("yes", "no") {
		t.Fatal("equalAnswer broken")
	}
}
