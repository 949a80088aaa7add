package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/skc"
	"repro/internal/tasks"
)

// fixedOracle returns a single predetermined knowledge candidate.
type fixedOracle struct{ k *tasks.Knowledge }

func (o fixedOracle) Generate(akb.GenerateRequest) []*tasks.Knowledge {
	return []*tasks.Knowledge{o.k}
}
func (o fixedOracle) Feedback(akb.FeedbackRequest) string { return "fb" }
func (o fixedOracle) Refine(akb.RefineRequest) []*tasks.Knowledge {
	return nil
}

func percentED(rng *rand.Rand, n int) []*data.Instance {
	var out []*data.Instance
	for i := 0; i < n; i++ {
		v, gold := "0.05", 1
		if rng.Intn(2) == 0 {
			v, gold = "0.05%", 0
		}
		out = append(out, &data.Instance{
			Fields:     []data.Field{{Name: "abv", Value: v}},
			Target:     "abv",
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		})
	}
	return out
}

func testUpstream() (*model.Model, []*skc.NamedSnapshot) {
	base := model.New(model.Config{Name: "t", Dim: 1 << 9, Hidden: 12, Seed: 2})
	rng := rand.New(rand.NewSource(3))
	sources := []skc.Source{{Name: "up", Examples: model.ExamplesFrom(tasks.ED, percentED(rng, 40), nil)}}
	snaps := skc.ExtractPatches(base, sources, skc.Options{Seed: 4})
	return base, snaps
}

func TestTransferFullPipeline(t *testing.T) {
	upstream, snaps := testUpstream()
	rng := rand.New(rand.NewSource(5))
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true,
		Oracle: fixedOracle{k: &tasks.Knowledge{
			Rules: []tasks.Rule{{
				Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
				Answer: tasks.Answer{Literal: tasks.AnswerYes},
				Weight: 1,
			}},
		}}}
	ad, err := kt.Transfer(context.Background(), tasks.ED, percentED(rng, 20), 6)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Model == nil || ad.Fusion == nil {
		t.Fatal("SKC artifacts missing")
	}
	if ad.AKBResult == nil {
		t.Fatal("AKB result missing")
	}
	test := percentED(rng, 40)
	if score := akb.Evaluate(ad.Model, tasks.SpecFor(tasks.ED), test, ad.Knowledge); score < 80 {
		t.Fatalf("full transfer should nearly solve the toy task, got %v", score)
	}
	// Predict answers with a legal candidate.
	for _, in := range test[:5] {
		got := ad.Predict(context.Background(), in)
		if got != tasks.AnswerYes && got != tasks.AnswerNo {
			t.Fatalf("illegal prediction %q", got)
		}
	}
}

func TestTransferAblations(t *testing.T) {
	upstream, snaps := testUpstream()
	rng := rand.New(rand.NewSource(7))
	fewshot := percentED(rng, 20)

	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseAKB: true, Oracle: fixedOracle{k: &tasks.Knowledge{}}}
	ad, err := kt.Transfer(context.Background(), tasks.ED, fewshot, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Fusion != nil {
		t.Fatal("w/o SKC must not build a fusion")
	}
	if ad.AKBResult == nil {
		t.Fatal("w/o SKC still runs AKB")
	}

	kt2 := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true}
	ad2, err := kt2.Transfer(context.Background(), tasks.ED, fewshot, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ad2.Knowledge != nil || ad2.AKBResult != nil {
		t.Fatal("w/o AKB must not search knowledge")
	}
	if ad2.Fusion == nil {
		t.Fatal("w/o AKB still runs SKC")
	}
}

func TestTransferErrors(t *testing.T) {
	upstream, snaps := testUpstream()
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true} // oracle nil
	if _, err := kt.Transfer(context.Background(), tasks.ED, nil, 1); err == nil {
		t.Fatal("empty few-shot must error")
	}
	rng := rand.New(rand.NewSource(10))
	if _, err := kt.Transfer(context.Background(), tasks.ED, percentED(rng, 5), 1); err == nil {
		t.Fatal("AKB without oracle must error")
	}
}

func TestTransferLeavesUpstreamUntouched(t *testing.T) {
	upstream, snaps := testUpstream()
	before := upstream.Export()
	rng := rand.New(rand.NewSource(11))
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true, Oracle: fixedOracle{k: &tasks.Knowledge{}}}
	if _, err := kt.Transfer(context.Background(), tasks.ED, percentED(rng, 20), 12); err != nil {
		t.Fatal(err)
	}
	after := upstream.Export()
	for name, w := range before.Mats {
		for i := range w {
			if after.Mats[name][i] != w[i] {
				t.Fatal("Transfer mutated the shared upstream model")
			}
		}
	}
}

// TestConcurrentTransfersShareOneBackbone: every adapted model reads the
// upstream's backbone in place. Four keys transfer at once while two resident
// adapters keep answering, and every answer and λ equals a serial run's; the
// upstream's bytes do not move; each adapted model's backbone is the
// upstream's storage, not a copy; and no ParamSet an adapted model builds
// lists a backbone block. check.sh runs it under -race, where a shared
// parameter reaching two optimizers is a reported race.
func TestConcurrentTransfersShareOneBackbone(t *testing.T) {
	upstream, snaps := testUpstream()
	kt := &KnowTrans{Upstream: upstream, Patches: snaps, UseSKC: true, UseAKB: true, Oracle: fixedOracle{k: &tasks.Knowledge{
		Rules: []tasks.Rule{{Cond: tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
			Answer: tasks.Answer{Literal: tasks.AnswerYes}, Weight: 1}},
	}}}
	test := percentED(rand.New(rand.NewSource(30)), 24)
	type outcome struct {
		answers []string
		lambdas []float64
	}
	transfer := func(key int) (*Adapted, outcome) {
		fewshot := percentED(rand.New(rand.NewSource(int64(40+key))), 12)
		ad, err := kt.Transfer(context.Background(), tasks.ED, fewshot, int64(50+key))
		if err != nil {
			t.Error(err)
			return nil, outcome{}
		}
		return ad, outcome{ad.PredictBatch(context.Background(), test), ad.Fusion.Weights()}
	}
	same := func(what string, got, want outcome) {
		if !slices.Equal(got.answers, want.answers) {
			t.Errorf("%s: answers %v, serial %v", what, got.answers, want.answers)
		}
		if len(got.lambdas) != len(want.lambdas) {
			t.Errorf("%s: %d λ, serial %d", what, len(got.lambdas), len(want.lambdas))
			return
		}
		for i := range want.lambdas {
			if math.Float64bits(got.lambdas[i]) != math.Float64bits(want.lambdas[i]) {
				t.Errorf("%s: λ%d %v, serial %v", what, i, got.lambdas[i], want.lambdas[i])
			}
		}
	}
	digest := func() uint64 {
		snap := upstream.Export()
		names := make([]string, 0, len(snap.Mats))
		for name := range snap.Mats {
			names = append(names, name)
		}
		slices.Sort(names)
		h := fnv.New64a()
		for _, name := range names {
			for _, v := range snap.Mats[name] {
				binary.Write(h, binary.LittleEndian, v)
			}
		}
		return h.Sum64()
	}
	before := digest()

	const keys, resident = 4, 2
	serial := make([]outcome, keys+resident)
	adapters := make([]*Adapted, keys+resident)
	for k := range serial {
		adapters[k], serial[k] = transfer(k)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := keys; r < keys+resident; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				same(fmt.Sprintf("resident %d", r), outcome{adapters[r].PredictBatch(context.Background(), test), adapters[r].Fusion.Weights()}, serial[r])
			}
		}()
	}
	var xfers sync.WaitGroup
	for k := 0; k < keys; k++ {
		xfers.Add(1)
		go func() {
			defer xfers.Done()
			ad, got := transfer(k)
			adapters[k] = ad
			same(fmt.Sprintf("key %d", k), got, serial[k])
		}()
	}
	xfers.Wait()
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	if after := digest(); after != before {
		t.Fatalf("upstream backbone digest %x after the transfers, %x before", after, before)
	}
	backbone := upstream.Params().Mats
	for k, ad := range adapters {
		fused := ad.Fusion.TrainableParams()
		for _, ps := range []nn.ParamSet{ad.Model.Params(), fused} {
			for _, b := range ps.Mats {
				for _, u := range backbone {
					if b.P == u.P || b.P.W == u.P.W {
						t.Fatalf("adapter %d: a ParamSet lists backbone block %s", k, u.P.Name)
					}
				}
			}
		}
		// A write to the upstream's storage shows through the adapted model.
		for _, u := range backbone {
			u.P.W.Data[0]++
			seen := ad.Model.Export().Mats[u.P.Name][0]
			u.P.W.Data[0]--
			if seen != u.P.W.Data[0]+1 {
				t.Fatalf("adapter %d reads a copy of %s, not the upstream's", k, u.P.Name)
			}
		}
	}
}
