package main

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/skc"
)

// TestLoadArtifactsTableOrder: what runBuild's writers put in a directory
// comes back with equal values and in Table VII order — ED, DI, SM, EM, as
// Zoo.Patches lists them — although the files sort DI, ED, EM, SM; names
// outside the table follow, sorted.
func TestLoadArtifactsTableOrder(t *testing.T) {
	dir := t.TempDir()
	if m, snaps, err := loadArtifacts(dir); m != nil || snaps != nil || err != nil {
		t.Fatalf("empty directory: got %v, %v, %v, want nothing", m, snaps, err)
	}
	up := model.New(model.Config{Name: "tiny", Dim: 64, Hidden: 4, Seed: 3})
	up.Trust.Val = 0.5
	rng := rand.New(rand.NewSource(4))
	written := map[string]*lora.Snapshot{}
	// Written in an order that is neither lexical nor the table's.
	for _, name := range []string{"EM/Beer", "zoo/custom", "DI/Buy", "ED/Hospital", "SM/MIMIC", "ED/Adult", "aux/custom"} {
		p := lora.Attach(name, up.Clone().LoraLayers(), lora.DefaultConfig(), &nn.Scalar{Val: 1}, rng)
		for _, at := range p.Attachments {
			at.A.W.FillGaussian(rng, 0.5)
		}
		written[name] = p.Export()
		if err := savePatch(dir, &skc.NamedSnapshot{Name: name, Snap: written[name]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := saveUpstream(dir, up); err != nil {
		t.Fatal(err)
	}

	m, snaps, err := loadArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, want := m.Export(), up.Export()
	if got.Cfg != want.Cfg || got.Trust != want.Trust {
		t.Fatalf("upstream came back as %+v trust %v, want %+v trust %v", got.Cfg, got.Trust, want.Cfg, want.Trust)
	}
	for name, w := range want.Mats {
		if !slices.Equal(got.Mats[name], w) {
			t.Fatalf("upstream matrix %s changed in the round trip", name)
		}
	}
	var names []string
	for _, ns := range snaps {
		names = append(names, ns.Name)
		w := written[ns.Name]
		if ns.Snap.Name != ns.Name || ns.Snap.Cfg != w.Cfg {
			t.Fatalf("%s came back as %q %+v", ns.Name, ns.Snap.Name, ns.Snap.Cfg)
		}
		if len(ns.Snap.B) != len(w.B) || len(ns.Snap.A) != len(w.A) {
			t.Fatalf("%s came back with %d B / %d A layers, want %d / %d", ns.Name, len(ns.Snap.B), len(ns.Snap.A), len(w.B), len(w.A))
		}
		for key := range w.B {
			if !slices.Equal(ns.Snap.B[key].Data, w.B[key].Data) || !slices.Equal(ns.Snap.A[key].Data, w.A[key].Data) {
				t.Fatalf("%s layer %s changed in the round trip", ns.Name, key)
			}
		}
	}
	if want := []string{"ED/Adult", "ED/Hospital", "DI/Buy", "SM/MIMIC", "EM/Beer", "aux/custom", "zoo/custom"}; !slices.Equal(names, want) {
		t.Fatalf("patches loaded as %v, want Table VII order %v", names, want)
	}
}
