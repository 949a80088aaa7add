package tasks

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
)

// TestBuildExampleIntoReuseMatchesFresh pins the serializer's in-place
// reuse: an Example filled over an earlier one's backing arrays holds the
// same segments (order, fields, weights, isolation), candidates, gold and
// hints as one filled fresh.
func TestBuildExampleIntoReuseMatchesFresh(t *testing.T) {
	k := &Knowledge{
		Text: "Prefer exact model numbers.",
		Serial: []SerialDirective{
			{Attr: "price", Action: ActionIgnore},
			{Attr: "title", Action: ActionEmphasize},
		},
		Rules: []Rule{{Cond: Condition{Pred: PredAlways}, Answer: Answer{Literal: AnswerYes}, Weight: 0.4}},
	}
	cases := []struct {
		name string
		spec Spec
		in   *data.Instance
		k    *Knowledge
	}{
		{"ed-nil-knowledge", SpecFor(ED), edInstance("abv", "0.05%"), nil},
		{"ed-knowledge", SpecFor(ED), edInstance("abv", "4.5%", data.Field{Name: "beer_name", Value: "Hop Storm"}), k},
		{"em-pair", SpecFor(EM), pairInstance(), nil},
		{"em-pair-knowledge", SpecFor(EM), pairInstance(), k},
	}
	var ex Example // reused across cases to exercise backing-array reuse
	for _, tc := range cases {
		want := build(tc.spec, tc.in, tc.k)
		BuildExampleInto(&ex, tc.spec, tc.in, tc.k)
		if len(ex.Segments) != len(want.Segments) {
			t.Fatalf("%s: segment count %d vs %d", tc.name, len(ex.Segments), len(want.Segments))
		}
		for i := range want.Segments {
			if ex.Segments[i] != want.Segments[i] {
				t.Fatalf("%s: segment %d differs:\n got %+v\nwant %+v", tc.name, i, ex.Segments[i], want.Segments[i])
			}
		}
		if ex.Gold != want.Gold || len(ex.Candidates) != len(want.Candidates) {
			t.Fatalf("%s: gold/candidates differ", tc.name)
		}
		for i := range want.Hints {
			if ex.Hints[i] != want.Hints[i] {
				t.Fatalf("%s: hint %d: %v vs %v", tc.name, i, ex.Hints[i], want.Hints[i])
			}
		}
	}
}

// TestTaskLabel: the task-identity segment is "task " + kind for every kind,
// the seven from the table without allocating, any other by concatenation.
func TestTaskLabel(t *testing.T) {
	for _, k := range append(All(), "XX") {
		if got := taskLabel(k); got != "task "+string(k) {
			t.Fatalf("taskLabel(%s) = %q", k, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = taskLabel(CTA) }); n != 0 {
		t.Fatalf("taskLabel(CTA) allocates %.0f objects", n)
	}
}

// TestAlignMemoDoesNotPinInstances: rows decoded for one request or one job
// must be collectable once the caller drops them. A process-wide memo keyed
// by instance pointer kept every row ever serialized alive (100 MiB over a
// benchmark window of 2000-row jobs), which made each GC cycle's cost grow
// with the rows served so far.
func TestAlignMemoDoesNotPinInstances(t *testing.T) {
	const n = 64
	var freed atomic.Int32
	var ex Example
	for i := 0; i < n; i++ {
		in := pairInstance()
		runtime.SetFinalizer(in, func(*data.Instance) { freed.Add(1) })
		BuildExampleInto(&ex, SpecFor(EM), in, nil)
	}
	ex = Example{}
	for i := 0; i < 10 && freed.Load() < n-1; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond) // finalizers run on their own goroutine
	}
	// The loop variable's last value may still be on the stack.
	if got := freed.Load(); got < n-1 {
		t.Fatalf("%d of %d instances collected after use: something still holds them", got, n)
	}
}
