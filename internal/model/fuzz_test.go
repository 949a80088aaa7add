package model

import (
	"testing"
)

// FuzzDecodeSnapshot: an upstream artifact is bytes from disk. Whatever they
// are, DecodeSnapshot returns (never panics, never allocates a model for a
// shape its matrices do not fill), and a snapshot it accepts builds a model
// with New and loads into it.
func FuzzDecodeSnapshot(f *testing.F) {
	m := New(Config{Name: "fuzz", Dim: 8, Hidden: 2, Seed: 1})
	m.Trust.Val = 0.5
	for _, change := range []func(*Snapshot){
		func(*Snapshot) {},
		func(s *Snapshot) { s.Cfg.Dim = -1 },
		func(s *Snapshot) { s.Cfg.Dim = 6 },
		func(s *Snapshot) { s.Cfg.Hidden = 0 },
		func(s *Snapshot) { s.Cfg.Dim = 1 << 40 },
		func(s *Snapshot) { s.Mats["in.dense.b"] = s.Mats["in.dense.b"][1:] },
		func(s *Snapshot) { delete(s.Mats, "cand.emb.E") },
	} {
		s := m.Export()
		change(s)
		blob, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSnapshot(blob)
		if err != nil {
			if s != nil {
				t.Fatalf("DecodeSnapshot failed (%v) but returned a snapshot", err)
			}
			return
		}
		if err := New(s.Cfg).LoadSnapshot(s); err != nil {
			t.Fatalf("an accepted snapshot does not load into the model its config builds: %v", err)
		}
	})
}
