package faults

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/akb"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// scriptOracle returns fixed responses and counts calls.
type scriptOracle struct {
	generate, feedback, refine int
}

func knowledgeScript() []*tasks.Knowledge {
	return []*tasks.Knowledge{{
		Text: "first candidate prose, long enough to visibly truncate",
		Rules: []tasks.Rule{
			{Weight: 0.9}, {Weight: 0.8}, {Weight: 0.7},
		},
		Serial: []tasks.SerialDirective{{Action: tasks.ActionIgnore, Attr: "price"}},
	}}
}

func (o *scriptOracle) Generate(akb.GenerateRequest) []*tasks.Knowledge {
	o.generate++
	return knowledgeScript()
}

func (o *scriptOracle) Feedback(akb.FeedbackRequest) string {
	o.feedback++
	return "a feedback string of some length for truncation"
}

func (o *scriptOracle) Refine(akb.RefineRequest) []*tasks.Knowledge {
	o.refine++
	return knowledgeScript()
}

func allCalls(f *Injector, n int) ([][]*tasks.Knowledge, []error) {
	ctx := context.Background()
	var outs [][]*tasks.Knowledge
	var errs []error
	for i := 0; i < n; i++ {
		ks, err := f.Generate(ctx, akb.GenerateRequest{})
		outs, errs = append(outs, ks), append(errs, err)
	}
	return outs, errs
}

// InjectionsOf reads the executed fault schedule back from a trace: one
// "call/op/kind" entry per faults.inject event, in call order. It is
// exported to the external chaos tests and exists only in the test binary.
func InjectionsOf(recs []obs.SpanRecord) []string {
	var out []string
	for _, r := range recs {
		if r.Name == "faults.inject" {
			out = append(out, fmt.Sprintf("%v/%v/%v", r.Attrs["call"], r.Attrs["op"], r.Attrs["kind"]))
		}
	}
	return out
}

func TestRateZeroIsTransparent(t *testing.T) {
	inner := &scriptOracle{}
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	f := Wrap(inner, Config{Rate: 0, Seed: 1, Rec: rec})
	outs, errs := allCalls(f, 50)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("rate 0 injected an error: %v", errs[i])
		}
		if !reflect.DeepEqual(outs[i], knowledgeScript()) {
			t.Fatalf("rate 0 altered a response: %+v", outs[i])
		}
	}
	if inner.generate != 50 {
		t.Fatalf("inner saw %d calls, want 50", inner.generate)
	}
	if n := rec.Metrics.Snapshot().Counters["faults.injected"]; n != 0 {
		t.Fatalf("rate 0 injected %d faults", n)
	}
}

func TestScheduleIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		f := Wrap(&scriptOracle{}, Config{Rate: 0.4, Seed: seed, Rec: obs.NewRecorder(nil, tr)})
		ctx := context.Background()
		for i := 0; i < 30; i++ {
			f.Generate(ctx, akb.GenerateRequest{})
			f.Feedback(ctx, akb.FeedbackRequest{})
			f.Refine(ctx, akb.RefineRequest{})
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := obs.ReadJSONL[obs.SpanRecord](&buf)
		if err != nil {
			t.Fatal(err)
		}
		return InjectionsOf(recs)
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rate 0.4 over 90 calls injected nothing")
	}
	if c := run(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestInjectedErrorSemantics(t *testing.T) {
	for _, kind := range []Kind{KindTimeout, KindRateLimit, KindServerError} {
		f := Wrap(&scriptOracle{}, Config{Rate: 1, Seed: 3, Kinds: []Kind{kind}})
		_, err := f.Generate(context.Background(), akb.GenerateRequest{})
		if err == nil {
			t.Fatalf("%s: no error injected", kind)
		}
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != kind || !fe.Temporary() {
			t.Fatalf("%s: wrong error %v", kind, err)
		}
		if kind == KindTimeout && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timeout should unwrap to DeadlineExceeded: %v", err)
		}
	}
}

func TestCorruptionKinds(t *testing.T) {
	inner := &scriptOracle{}
	ctx := context.Background()

	f := Wrap(inner, Config{Rate: 1, Seed: 3, Kinds: []Kind{KindEmpty}})
	ks, err := f.Generate(ctx, akb.GenerateRequest{})
	if err != nil || len(ks) != 0 {
		t.Fatalf("empty fault: ks=%v err=%v", ks, err)
	}
	if inner.generate != 1 {
		t.Fatal("empty fault must still consume the inner call")
	}
	fb, err := f.Feedback(ctx, akb.FeedbackRequest{})
	if err != nil || fb != "" {
		t.Fatalf("empty feedback: %q err=%v", fb, err)
	}

	f = Wrap(inner, Config{Rate: 1, Seed: 3, Kinds: []Kind{KindTruncated}})
	ks, _ = f.Generate(ctx, akb.GenerateRequest{})
	orig := knowledgeScript()[0]
	if len(ks) != 1 || len(ks[0].Text) >= len(orig.Text) || len(ks[0].Rules) >= len(orig.Rules) || ks[0].Serial != nil {
		t.Fatalf("truncation did not shrink the candidate: %+v", ks[0])
	}

	f = Wrap(inner, Config{Rate: 1, Seed: 3, Kinds: []Kind{KindMalformed}})
	ks, _ = f.Generate(ctx, akb.GenerateRequest{})
	if len(ks) != 1 || !math.IsNaN(ks[0].Rules[0].Weight) || ks[0].Rules[1].Weight >= 0 {
		t.Fatalf("malformation missing: %+v", ks[0])
	}
	if len(ks[0].Text) <= akb.MaxKnowledgeText {
		t.Fatalf("malformed text should exceed the sanitizer cap, %d bytes", len(ks[0].Text))
	}
	// And the sanitizer must catch exactly this shape.
	kept, rejected := akb.SanitizeCandidates(ks)
	if rejected != 0 || len(kept) != 1 {
		t.Fatalf("sanitizer rejected a repairable candidate: kept=%d rejected=%d", len(kept), rejected)
	}
	if len(kept[0].Rules) != 1 || kept[0].Rules[0].Weight != 0.7 || len(kept[0].Text) != akb.MaxKnowledgeText {
		t.Fatalf("sanitizer repair wrong: %+v", kept[0])
	}
}

func TestCorruptionClonesNotOriginals(t *testing.T) {
	shared := knowledgeScript()
	inner := &fixedOracle{ks: shared}
	f := Wrap(inner, Config{Rate: 1, Seed: 5, Kinds: []Kind{KindMalformed}})
	f.Generate(context.Background(), akb.GenerateRequest{})
	if math.IsNaN(shared[0].Rules[0].Weight) || len(shared[0].Text) > 100 {
		t.Fatalf("injector mutated the oracle's own candidate: %+v", shared[0])
	}
}

type fixedOracle struct{ ks []*tasks.Knowledge }

func (o *fixedOracle) Generate(akb.GenerateRequest) []*tasks.Knowledge { return o.ks }
func (o *fixedOracle) Feedback(akb.FeedbackRequest) string             { return "fb" }
func (o *fixedOracle) Refine(akb.RefineRequest) []*tasks.Knowledge     { return o.ks }

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("rate=0.3,seed=9,kinds=timeout+empty,latency=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Rate: 0.3, Seed: 9, Kinds: []Kind{KindTimeout, KindEmpty}, Latency: 5 * time.Millisecond}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("got %+v want %+v", cfg, want)
	}
	if cfg, err = ParseSpec("rate=0"); err != nil || cfg.Rate != 0 {
		t.Fatalf("rate=0 must be a valid spec: %+v %v", cfg, err)
	}
	for _, bad := range []string{
		"", "seed=9", "rate=1.5", "rate=x", "rate=0.1,bogus=1",
		"rate=0.1,kinds=nope", "rate=0.1,latency=-1s", "rate",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for cell := int64(0); cell < 100; cell++ {
		s := DeriveSeed(9, cell)
		if s < 0 || seen[s] {
			t.Fatalf("derived seed %d (cell %d) negative or colliding", s, cell)
		}
		seen[s] = true
	}
	if DeriveSeed(9, 1) != DeriveSeed(9, 1) {
		t.Fatal("DeriveSeed not deterministic")
	}
}

func TestWrapRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap accepted rate 2")
		}
	}()
	Wrap(&scriptOracle{}, Config{Rate: 2})
}
