package lora

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func gaussian(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 0.5
	}
	return out
}

// hostLayers builds a tiny pair of adaptable layers.
func hostLayers(rng *rand.Rand) (map[string]Layer, *nn.Dense, *nn.Embedding) {
	d := nn.NewDense("d", 4, 6, rng)
	e := nn.NewEmbedding("e", 32, 6, rng)
	return map[string]Layer{"dense": d, "emb": e}, d, e
}

func TestAttachCoversAllLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layers, d, e := hostLayers(rng)
	coef := &nn.Scalar{Val: 1}
	p := Attach("p1", layers, Config{Rank: 2, Alpha: 1}, coef, rng)
	if len(p.Attachments) != 2 {
		t.Fatalf("patch should span 2 layers, got %d", len(p.Attachments))
	}
	if len(d.Patches) != 1 || len(e.Patches) != 1 {
		t.Fatal("layers did not receive attachments")
	}
	if got := len(p.Params()); got != 4 {
		t.Fatalf("expected 4 factor matrices, got %d", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layers, _, _ := hostLayers(rng)
	p := Attach("p", layers, Config{Rank: 2, Alpha: 1}, &nn.Scalar{Val: 1}, rng)
	// Give the factors distinctive values.
	for _, at := range p.Attachments {
		at.A.W.FillGaussian(rng, 0.5)
		at.B.SetValues(gaussian(rng, at.B.NumParams()))
	}
	blob, err := p.Export().Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Load into a second host with the same topology.
	rng2 := rand.New(rand.NewSource(3))
	layers2, _, _ := hostLayers(rng2)
	p2 := Attach("p", layers2, Config{Rank: 2, Alpha: 1}, &nn.Scalar{Val: 1}, rng2)
	if err := p2.Load(snap); err != nil {
		t.Fatal(err)
	}
	for key, at := range p.Attachments {
		at2 := p2.Attachments[key]
		for i := range at.A.W.Data {
			if at.A.W.Data[i] != at2.A.W.Data[i] {
				t.Fatal("A factors differ after round trip")
			}
		}
		if !slices.Equal(at.B.Values(), at2.B.Values()) {
			t.Fatal("B factors differ after round trip")
		}
	}
	t.Run("third of five to first of two", crossLayouts)
}

// crossLayouts: a snapshot is the patch's own dense matrices, whatever bank it
// was cut from. The third of five patches, exported, encoded and loaded as
// the first of two on another host, carries the values it was given and
// computes the same forward bit for bit.
func crossLayouts(t *testing.T) {
	cfg := Config{Rank: 2, Alpha: 1.5}
	off := func() *nn.Scalar { return &nn.Scalar{Frozen: true} } // λ frozen at 0: skipped
	layers, d, e := hostLayers(rand.New(rand.NewSource(9)))
	rng := rand.New(rand.NewSource(10))
	var third *Patch
	for i := 0; i < 5; i++ {
		coef := off()
		if i == 2 {
			coef = &nn.Scalar{Val: 0.8}
		}
		p := Attach("p", layers, cfg, coef, rng)
		if i == 2 {
			third = p
		}
	}
	want := map[string][2][]float64{}
	for key, at := range third.Attachments {
		b, a := gaussian(rng, at.B.NumParams()), gaussian(rng, at.A.NumParams())
		at.B.SetValues(b)
		at.A.SetValues(a)
		want[key] = [2][]float64{b, a}
	}
	blob, err := third.Export().Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if bs := snap.B[key]; bs.Cols != cfg.Rank || !slices.Equal(bs.Data, w[0]) {
			t.Fatalf("%s: decoded B is %dx%d %v, want the dense %v", key, bs.Rows, bs.Cols, bs.Data, w[0])
		}
		if as := snap.A[key]; as.Rows != cfg.Rank || !slices.Equal(as.Data, w[1]) {
			t.Fatalf("%s: decoded A is %dx%d %v, want the dense %v", key, as.Rows, as.Cols, as.Data, w[1])
		}
	}

	layers2, d2, e2 := hostLayers(rand.New(rand.NewSource(9))) // same backbone
	rng2 := rand.New(rand.NewSource(11))
	first := Attach("p", layers2, cfg, &nn.Scalar{Val: 0.8}, rng2)
	Attach("q", layers2, cfg, off(), rng2)
	if err := first.Load(snap); err != nil {
		t.Fatal(err)
	}
	x := &tensor.Sparse{Idx: []int32{2, 9, 30}, Val: []float64{0.5, -1, 0.25}}
	h, h2 := e.Forward(x), e2.Forward(x)
	if !slices.Equal(h, h2) {
		t.Fatalf("embedding forwards differ: %v vs %v", h, h2)
	}
	if y, y2 := d.Forward(h), d2.Forward(h2); !slices.Equal(y, y2) {
		t.Fatalf("dense forwards differ: %v vs %v", y, y2)
	}
}

// TestLoadRejectsWrongShape: a snapshot that does not fit — rank, α, a layer
// missing from either map, one layer of the wrong shape — is refused with
// the patch exactly as it was, not half overwritten.
func TestLoadRejectsWrongShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layers, _, _ := hostLayers(rng)
	cfg := Config{Rank: 2, Alpha: 1}
	p := Attach("p", layers, cfg, &nn.Scalar{Val: 1}, rng)
	for _, at := range p.Attachments {
		at.A.W.FillGaussian(rng, 0.5)
	}
	before := p.Export()
	unchanged := func(why string) {
		t.Helper()
		after := p.Export()
		for key := range before.B {
			if !slices.Equal(after.B[key].Data, before.B[key].Data) || !slices.Equal(after.A[key].Data, before.A[key].Data) {
				t.Fatalf("%s: rejected load changed layer %q", why, key)
			}
		}
	}
	// other returns a loadable snapshot of different values for fn to break.
	other := func(c Config) *Snapshot {
		l, _, _ := hostLayers(rand.New(rand.NewSource(5)))
		q := Attach("q", l, c, &nn.Scalar{Val: 1}, rng)
		for _, at := range q.Attachments {
			at.A.W.FillGaussian(rng, 0.5)
		}
		return q.Export()
	}
	for _, tc := range []struct {
		why    string
		snap   *Snapshot
		mangle func(*Snapshot)
		names  string // what the error must mention
	}{
		{"different rank", other(Config{Rank: 3, Alpha: 1}), func(*Snapshot) {}, "rank 3"},
		{"different alpha", other(Config{Rank: 2, Alpha: 2}), func(*Snapshot) {}, "alpha 2"},
		{"layer missing", other(cfg), func(s *Snapshot) { delete(s.B, "dense"); delete(s.A, "dense") }, "layers"},
		{"A missing for a layer", other(cfg), func(s *Snapshot) { delete(s.A, "emb") }, "layers"},
		{"layer renamed", other(cfg), func(s *Snapshot) {
			s.B["other"], s.A["other"] = s.B["emb"], s.A["emb"]
			delete(s.B, "emb")
			delete(s.A, "emb")
		}, `"emb"`},
		// "emb" sorts after "dense": validating while copying would have
		// overwritten "dense" before noticing.
		{"last layer misshapen", other(cfg), func(s *Snapshot) {
			m := s.B["emb"]
			m.Rows--
			m.Data = m.Data[:m.Rows*m.Cols]
			s.B["emb"] = m
		}, `"emb"`},
		{"data shorter than its shape", other(cfg), func(s *Snapshot) {
			m := s.A["dense"]
			m.Data = m.Data[1:]
			s.A["dense"] = m
		}, `"dense"`},
	} {
		tc.mangle(tc.snap)
		err := p.Load(tc.snap)
		if err == nil {
			t.Fatalf("%s: Load accepted the snapshot", tc.why)
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Fatalf("%s: error %q does not mention %s", tc.why, err, tc.names)
		}
		unchanged(tc.why)
	}
	if err := p.Load(other(cfg)); err != nil {
		t.Fatalf("an intact snapshot must still load: %v", err)
	}
}

// TestAttachUnsetLoadAllMatchesAttachLoad: attaching a library with
// Reserve + AttachUnset + one LoadAll leaves every factor — the loaded
// patches' and the fresh patch drawn after them from the same stream — equal
// to Attach + Load per patch, which draws each B only to overwrite it.
func TestAttachUnsetLoadAllMatchesAttachLoad(t *testing.T) {
	cfg := Config{Rank: 2, Alpha: 1}
	var snaps []*Snapshot
	for i := int64(0); i < 3; i++ {
		rng := rand.New(rand.NewSource(20 + i))
		l, _, _ := hostLayers(rng)
		p := Attach("src", l, cfg, &nn.Scalar{Val: 1}, rng)
		for _, at := range p.Attachments {
			at.A.W.FillGaussian(rng, 0.5)
		}
		snaps = append(snaps, p.Export())
	}
	build := func(batched bool) []*Patch {
		layers, _, _ := hostLayers(rand.New(rand.NewSource(30)))
		rng := rand.New(rand.NewSource(31))
		var patches []*Patch
		if batched {
			Reserve(layers, len(snaps)+1, cfg)
			for range snaps {
				patches = append(patches, AttachUnset("p", layers, cfg, &nn.Scalar{Val: 1}, rng))
			}
			if err := LoadAll(patches, snaps); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, s := range snaps {
				p := Attach("p", layers, cfg, &nn.Scalar{Val: 1}, rng)
				if err := p.Load(s); err != nil {
					t.Fatal(err)
				}
				patches = append(patches, p)
			}
		}
		return append(patches, Attach("shared", layers, cfg, &nn.Scalar{Val: 1}, rng))
	}
	one, all := build(false), build(true)
	for i, p := range one {
		for j, b := range p.Params() {
			if !slices.Equal(b.Values(), all[i].Params()[j].Values()) {
				t.Fatalf("patch %d factor %d differs between Attach+Load and AttachUnset+LoadAll", i, j)
			}
		}
	}
}

func TestSetFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layers, _, _ := hostLayers(rng)
	p := Attach("p", layers, Config{Rank: 2, Alpha: 1}, &nn.Scalar{Val: 1}, rng)
	p.SetFrozen(true)
	for _, at := range p.Attachments {
		if !at.A.Frozen || !at.B.Frozen {
			t.Fatal("SetFrozen(true) did not freeze factors")
		}
	}
	p.SetFrozen(false)
	for _, at := range p.Attachments {
		if at.A.Frozen || at.B.Frozen {
			t.Fatal("SetFrozen(false) did not unfreeze factors")
		}
	}
}

func TestFusionTrainableParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layers, _, _ := hostLayers(rng)
	l1 := &nn.Scalar{Name: "λ1", Val: 0.5}
	l2 := &nn.Scalar{Name: "λ2", Val: 0.5, Frozen: true}
	f := &Fusion{
		Upstream: []*Patch{
			Attach("u1", layers, Config{Rank: 2, Alpha: 1}, l1, rng),
			Attach("u2", layers, Config{Rank: 2, Alpha: 1}, l2, rng),
		},
		Shared:  Attach("shared", layers, Config{Rank: 2, Alpha: 1}, &nn.Scalar{Val: 1, Frozen: true}, rng),
		Lambdas: []*nn.Scalar{l1, l2},
	}
	ps := f.TrainableParams()
	// 3 patches × 2 layers × 2 factors = 12 matrices; 1 unfrozen λ.
	if len(ps.Mats) != 12 {
		t.Fatalf("expected 12 factor matrices, got %d", len(ps.Mats))
	}
	if len(ps.Scalars) != 1 || ps.Scalars[0] != l1 {
		t.Fatalf("expected only the unfrozen λ, got %d scalars", len(ps.Scalars))
	}
	w := f.Weights()
	if len(w) != 2 || w[0] != 0.5 {
		t.Fatalf("weights = %v", w)
	}
}

func TestWeightStrategyString(t *testing.T) {
	if StrategyAdaptive.String() != "adaptive" || StrategyUniform.String() != "uniform" || StrategySingle.String() != "single" {
		t.Fatal("strategy names wrong")
	}
	if WeightStrategy(9).String() == "" {
		t.Fatal("unknown strategy should still render")
	}
}

func TestPatchNormGrowsWithTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layers, _, _ := hostLayers(rng)
	p := Attach("p", layers, Config{Rank: 2, Alpha: 1}, &nn.Scalar{Val: 1}, rng)
	if p.Norm() != 0 {
		t.Fatalf("fresh patch norm should be 0 (A=0), got %v", p.Norm())
	}
	for _, at := range p.Attachments {
		at.A.W.FillGaussian(rng, 0.5)
	}
	if p.Norm() == 0 {
		t.Fatal("non-zero factors should give non-zero norm")
	}
}
