package model

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/tasks"
)

// TestPredictNilRecorderAddsNoAllocs is the zero-cost-when-disabled gate
// for the predict hot path: the nil-recorder instrumentation calls an n = 1
// PredictBatch makes must contribute zero allocations. We measure the call
// as-is (its hooks run against the nil recorder) and the call plus an extra
// copy of every hook it contains — identical counts mean the hooks are free.
func TestPredictNilRecorderAddsNoAllocs(t *testing.T) {
	m := New(tinyConfig())
	ins := toyED(1, 9)
	exs := one(tasks.BuildExample(tasks.SpecFor(tasks.ED), ins[0], nil))
	m.PredictBatch(exs) // warm caches (candidate encodings, scratch)

	if m.Rec != nil {
		t.Fatal("fresh model should have a nil recorder")
	}
	base := testing.AllocsPerRun(500, func() {
		m.PredictBatch(exs)
	})
	withHooks := testing.AllocsPerRun(500, func() {
		m.Rec.Count("model.predict", 1)
		m.Rec.Count("model.forward", 1)
		m.Rec.Count("model.batch_forward", 1)
		m.PredictBatch(exs)
	})
	if withHooks != base {
		t.Fatalf("nil-recorder hooks allocate: %v allocs/op with extra hooks vs %v base", withHooks, base)
	}
}

// TestPredictCountsWithRecorder pins the counters of an n = 1 predict — one
// model.predict, one model.forward, one model.batch_forward — and that
// clones inherit the recorder.
func TestPredictCountsWithRecorder(t *testing.T) {
	m := New(tinyConfig())
	reg := obs.NewRegistry()
	m.Rec = obs.NewRecorder(reg, nil)
	ins := toyED(4, 11)
	spec := tasks.SpecFor(tasks.ED)
	for i, in := range ins {
		m.PredictWith(spec, in, nil)
		for _, name := range []string{"model.predict", "model.forward", "model.batch_forward"} {
			if got := reg.Counter(name).Value(); got != int64(i+1) {
				t.Fatalf("%s = %d after %d n=1 predicts", name, got, i+1)
			}
		}
	}

	c := m.Clone()
	if c.Rec != m.Rec {
		t.Fatal("clone should inherit the recorder")
	}
	c.PredictWith(spec, ins[0], nil)
	if got := reg.Counter("model.predict").Value(); got != 5 {
		t.Fatalf("clone predict not counted: %d", got)
	}
}

// TestTrainEmitsTelemetry checks the example counter, one step-time
// observation per accumulation window, and the per-epoch loss gauge under a
// custom metric tag.
func TestTrainEmitsTelemetry(t *testing.T) {
	m := New(tinyConfig())
	reg := obs.NewRegistry()
	m.Rec = obs.NewRecorder(reg, nil)
	train := toyED(30, 13)
	ps := m.Params()
	loss := Train(m, ExamplesFrom(tasks.ED, train, nil), TrainConfig{Epochs: 2, LR: 0.05, Clip: 5, Seed: 7, MetricTag: "skc.fewshot"}, &ps)

	if got := reg.Counter("model.train_step").Value(); got != int64(2*len(train)) {
		t.Fatalf("model.train_step = %d, want %d", got, 2*len(train))
	}
	windows := (len(train) + 7) / 8 // the default window is 8 examples
	h := reg.Histogram("skc.fewshot.step_us", nil)
	if h.Count() != int64(2*windows) {
		t.Fatalf("step_us observations = %d, want %d (%d windows per epoch)", h.Count(), 2*windows, windows)
	}
	if g := reg.Gauge("skc.fewshot.epoch_loss").Value(); g != loss {
		t.Fatalf("epoch_loss gauge = %v, want final loss %v", g, loss)
	}
}
