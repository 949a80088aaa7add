package lora

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// FuzzDecodeSnapshot: a patch artifact is bytes from disk. Whatever they are,
// DecodeSnapshot and then Patch.Load return (never panic); a Load that
// refuses leaves the patch exactly as it was, and one that accepts leaves it
// holding the snapshot's values.
func FuzzDecodeSnapshot(f *testing.F) {
	cfg := Config{Rank: 2, Alpha: 1}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []Config{cfg, {Rank: 3, Alpha: 1}, {Rank: 2, Alpha: 2}} {
		layers, _, _ := hostLayers(rng)
		p := Attach("p", layers, c, &nn.Scalar{Val: 1}, rng)
		for _, at := range p.Attachments {
			at.A.W.FillGaussian(rng, 0.5)
		}
		for _, change := range []func(*Snapshot){
			func(*Snapshot) {},
			func(s *Snapshot) { delete(s.A, "emb") },
			func(s *Snapshot) { m := s.B["dense"]; m.Rows, m.Data = -1, nil; s.B["dense"] = m },
			func(s *Snapshot) { m := s.A["emb"]; m.Data = m.Data[1:]; s.A["emb"] = m },
		} {
			s := p.Export()
			change(s)
			blob, err := s.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			f.Add(blob[:len(blob)/2])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSnapshot(blob)
		if err != nil {
			return
		}
		layers, _, _ := hostLayers(rand.New(rand.NewSource(2)))
		p := Attach("p", layers, cfg, &nn.Scalar{Val: 1}, rand.New(rand.NewSource(3)))
		before := p.Export()
		if err := p.Load(s); err != nil {
			if key, ok := sameFactors(p.Export(), before); !ok {
				t.Fatalf("a refused load (%v) changed layer %q", err, key)
			}
			return
		}
		if key, ok := sameFactors(p.Export(), s); !ok {
			t.Fatalf("an accepted load left layer %q unlike the snapshot", key)
		}
	})
}

// sameFactors reports whether two snapshots hold the same bits in every
// layer of a, or the first layer where they differ.
func sameFactors(a, b *Snapshot) (string, bool) {
	for key := range a.B {
		for _, pair := range [][2][]float64{{a.B[key].Data, b.B[key].Data}, {a.A[key].Data, b.A[key].Data}} {
			if len(pair[0]) != len(pair[1]) {
				return key, false
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					return key, false
				}
			}
		}
	}
	return "", true
}
