package data

import (
	"math/rand"
	"strings"
	"testing"
)

func binaryInstances(n, posEvery int) []*Instance {
	var out []*Instance
	for i := 0; i < n; i++ {
		gold := 1
		if i%posEvery == 0 {
			gold = 0
		}
		out = append(out, &Instance{
			ID:         "i",
			Fields:     []Field{{Name: "v", Value: strings.Repeat("x", i%7+1)}},
			Candidates: []string{"yes", "no"},
			Gold:       gold,
		})
	}
	return out
}

func TestTableAppendAndCell(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Append("1", "2")
	if tb.Cell(0, "b") != "2" {
		t.Fatalf("cell = %q", tb.Cell(0, "b"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	tb.Append("only-one")
}

func TestTableUnknownAttrPanics(t *testing.T) {
	tb := NewTable("t", "a")
	tb.Append("1")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown attribute must panic")
		}
	}()
	tb.Cell(0, "zz")
}

func TestInstanceGoldText(t *testing.T) {
	in := &Instance{Candidates: []string{"a", "b"}, Gold: 1}
	if in.GoldText() != "b" {
		t.Fatalf("gold = %q", in.GoldText())
	}
	in.Gold = 5
	if in.GoldText() != "" {
		t.Fatal("out-of-range gold should give empty text")
	}
}

func TestInstanceClone(t *testing.T) {
	in := &Instance{
		Fields:     []Field{{Name: "a", Value: "1"}},
		Candidates: []string{"x", "y"},
		Meta:       map[string]string{"k": "v"},
	}
	c := in.Clone()
	c.Fields[0].Value = "changed"
	c.Candidates[0] = "changed"
	c.Meta["k"] = "changed"
	if in.Fields[0].Value != "1" || in.Candidates[0] != "x" || in.Meta["k"] != "v" {
		t.Fatal("Clone must deep-copy")
	}
}

func TestFewShotStratified(t *testing.T) {
	ds := &Dataset{Name: "d", Task: "ED", Train: binaryInstances(200, 10)}
	got := ds.FewShot(rand.New(rand.NewSource(1)), 20)
	if len(got) != 20 {
		t.Fatalf("got %d samples", len(got))
	}
	pos := 0
	for _, in := range got {
		if in.GoldText() == "yes" {
			pos++
		}
	}
	// Round-robin stratification on a 10%-positive pool should yield a
	// balanced few-shot sample.
	if pos != 10 {
		t.Fatalf("stratification broken: %d positives of 20", pos)
	}
}

func TestFewShotDeterministic(t *testing.T) {
	ds := &Dataset{Name: "d", Task: "ED", Train: binaryInstances(100, 4)}
	a := ds.FewShot(rand.New(rand.NewSource(7)), 20)
	b := ds.FewShot(rand.New(rand.NewSource(7)), 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("few-shot sampling must be deterministic in the rng")
		}
	}
}

func TestFewShotWholePool(t *testing.T) {
	ds := &Dataset{Name: "d", Task: "ED", Train: binaryInstances(10, 2)}
	got := ds.FewShot(rand.New(rand.NewSource(1)), 50)
	if len(got) != 10 {
		t.Fatalf("asking for more than the pool should return the pool, got %d", len(got))
	}
}

func TestRenderRecord(t *testing.T) {
	fields := []Field{
		{Entity: "A", Name: "x", Value: "1"},
		{Entity: "A", Name: "y", Value: "2"},
		{Entity: "B", Name: "x", Value: "3"},
	}
	got := RenderRecord(fields)
	want := "A: [x: 1, y: 2] B: [x: 3]"
	if got != want {
		t.Fatalf("render = %q, want %q", got, want)
	}
	single := RenderRecord([]Field{{Name: "x", Value: "1"}})
	if single != "[x: 1]" {
		t.Fatalf("single-entity render = %q", single)
	}
}

func TestDatasetKey(t *testing.T) {
	ds := &Dataset{Name: "Beer", Task: "ED"}
	if ds.Key() != "ED/Beer" {
		t.Fatalf("key = %q", ds.Key())
	}
}

func TestFieldValue(t *testing.T) {
	in := &Instance{Fields: []Field{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}}}
	if in.FieldValue("b") != "2" || in.FieldValue("zz") != "" {
		t.Fatal("FieldValue lookup broken")
	}
}

// TestDerivedMemoizesOnTheInstance: the function runs once per instance and
// a clone starts without the memo (its Fields may be edited before use).
func TestDerivedMemoizesOnTheInstance(t *testing.T) {
	calls := 0
	count := func(in *Instance) any { calls++; return len(in.Fields) }
	in := &Instance{ID: "r1", Fields: []Field{{Name: "a", Value: "1"}}, Target: "a",
		Candidates: []string{"yes", "no"}, Gold: 1, Meta: map[string]string{"k": "v"}}
	if in.Derived(count) != 1 || in.Derived(count) != 1 || calls != 1 {
		t.Fatalf("memo: %d calls", calls)
	}
	cp := in.Clone()
	if cp.ID != "r1" || cp.Target != "a" || cp.Gold != 1 || cp.Meta["k"] != "v" ||
		len(cp.Fields) != 1 || len(cp.Candidates) != 2 {
		t.Fatalf("clone lost a field: %+v", cp)
	}
	cp.Fields = append(cp.Fields, Field{Name: "b", Value: "2"})
	if cp.Derived(count) != 2 || calls != 2 {
		t.Fatalf("clone carried the memo (%d calls)", calls)
	}
}
