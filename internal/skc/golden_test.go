package skc

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tasks"
)

// goldenDigest is the FNV-1a digest of every weight the toy pipeline below
// produces, captured on the commit before the training step was rewritten
// (PR 12, parent aaa74b4). The rewrite's contract is that every float
// operation keeps its order, so a performance change must never move this
// constant; a change that alters training arithmetic on purpose re-records it
// and says so.
const goldenDigest = "8be2a8d4b2c81421"

type digest struct{ h hash.Hash64 }

func (d digest) floats(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

func (d digest) params(ps nn.ParamSet) {
	// Each listed block as its own dense matrix — layer, patch, B then A,
	// row-major — whatever bank the B blocks are interleaved in.
	for _, b := range ps.Mats {
		d.floats(b.Values()...)
	}
	for _, s := range ps.Scalars {
		d.floats(s.Val)
	}
}

// layers lists the model's layers in Params order, each with the backbone
// matrices it reads.
var layers = []struct {
	key  string
	base []string
}{
	{"in.emb", []string{"in.emb.E"}},
	{"in.dense", []string{"in.dense.W", "in.dense.b"}},
	{"cand.emb", []string{"cand.emb.E"}},
	{"cand.dense", []string{"cand.dense.W", "cand.dense.b"}},
}

// adapted digests an adapted model in the order its Params listed it when
// the model held a copy of the backbone: per layer, the layer's backbone
// matrices (which it now shares, read through Export), then its patch blocks;
// then the scalars.
func (d digest) adapted(t *testing.T, m *model.Model) {
	snap, ps := m.Export(), m.Params()
	i := 0
	for _, l := range layers {
		for _, name := range l.base {
			d.floats(snap.Mats[name]...)
		}
		for ; i < len(ps.Mats) && layerOf(ps.Mats[i].P.Name) == l.key; i++ {
			d.floats(ps.Mats[i].Values()...)
		}
	}
	if i != len(ps.Mats) {
		t.Fatalf("parameter %s belongs to no layer", ps.Mats[i].P.Name)
	}
	for _, s := range ps.Scalars {
		d.floats(s.Val)
	}
}

// layerOf names the layer of a patch factor: a bank "<layer>.B" or an A
// factor "<patch>/<layer>.A".
func layerOf(name string) string {
	name = name[strings.LastIndex(name, "/")+1:]
	return strings.TrimSuffix(strings.TrimSuffix(name, ".A"), ".B")
}

// TestGoldenBitIdentity pins the training step's arithmetic end to end on a
// tiny model: full fine-tuning with knowledge hints (unfrozen sparse
// embedding rows, trust gradient), patch extraction (frozen backbone), fusion
// of 3 patches + shared, and few-shot fine-tuning with adaptive λ, weight
// decay, a clip threshold low enough to rescale, and an example count that
// leaves a partial accumulation window at the end of each epoch.
func TestGoldenBitIdentity(t *testing.T) {
	base := tinyModel(1)
	rng := rand.New(rand.NewSource(21))
	know := &tasks.Knowledge{
		Text: "values containing % are errors",
		Rules: []tasks.Rule{{
			Cond:   tasks.Condition{Pred: tasks.PredContains, Arg: "%"},
			Answer: tasks.Answer{Literal: tasks.AnswerYes},
			Weight: 1,
		}},
	}
	upstream := base.Clone()
	mixed := append(
		model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "%", ""), know),
		model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, "", "%"), nil)...)
	ups := upstream.Params()
	upLoss := model.Train(upstream, mixed, model.TrainConfig{Epochs: 2, LR: 0.03, Clip: 5, Seed: 4}, &ups)

	var sources []Source
	for _, s := range []struct{ name, errM, okM string }{{"rel", "%", ""}, {"conf", "", "%"}, {"hash", "#", "%"}} {
		sources = append(sources, Source{Name: s.name,
			Examples: model.ExamplesFrom(tasks.ED, markerDataset(rng, 30, s.errM, s.okM), nil)})
	}
	opts := testOptions()
	snaps := ExtractPatches(base, sources, opts)

	opts.fewShot = model.TrainConfig{Epochs: 5, LR: 0.05, Clip: 0.05, Seed: 12, WeightDecay: 3e-4, BatchSize: 4}
	tr, err := BuildFusion(upstream, snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	fewshot := model.ExamplesFrom(tasks.ED, markerDataset(rng, 22, "%", ""), nil)
	loss := FewShotFineTune(tr, fewshot, opts)

	d := digest{fnv.New64a()}
	d.floats(upLoss, loss)
	d.params(upstream.Params())
	for _, ns := range snaps {
		keys := make([]string, 0, len(ns.Snap.B))
		for k := range ns.Snap.B {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d.floats(ns.Snap.B[k].Data...)
			d.floats(ns.Snap.A[k].Data...)
		}
	}
	d.adapted(t, tr.Model)
	d.floats(tr.Fusion.Weights()...)
	spec := tasks.SpecFor(tasks.ED)
	var ex tasks.Example
	for _, in := range markerDataset(rng, 10, "%", "") {
		tasks.BuildExampleInto(&ex, spec, in, know)
		d.floats(tr.Model.ScoresBatch([]*tasks.Example{&ex})[0]...)
	}
	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != goldenDigest {
		t.Fatalf("training arithmetic changed: digest %s, want %s", got, goldenDigest)
	}
}
