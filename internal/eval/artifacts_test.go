package eval

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/skc"
)

// tinyArtifactZoo is a zoo whose 7B upstream model and patch library are
// hand-made and already published, so SaveArtifacts trains nothing. The
// library is listed in an order that is neither lexical nor Table VII's.
func tinyArtifactZoo(seed int64, scale float64) (*Zoo, *model.Model, map[string]*lora.Snapshot) {
	up := model.New(model.Config{Name: "tiny", Dim: 64, Hidden: 4, Seed: 3})
	up.Trust.Val = 0.5
	rng := rand.New(rand.NewSource(4))
	written := map[string]*lora.Snapshot{}
	var snaps []*skc.NamedSnapshot
	for _, name := range []string{"EM/Beer", "zoo/custom", "DI/Buy", "ED/Hospital", "SM/MIMIC", "ED/Adult", "aux/custom"} {
		p := lora.Attach(name, up.Clone().LoraLayers(), lora.DefaultConfig(), &nn.Scalar{Val: 1}, rng)
		for _, at := range p.Attachments {
			at.A.W.FillGaussian(rng, 0.5)
		}
		written[name] = p.Export()
		snaps = append(snaps, &skc.NamedSnapshot{Name: name, Snap: written[name]})
	}
	z := NewZoo(seed, scale)
	z.memo(upstreamKey(Size7B), func() interface{} { return up })
	z.memo(patchesKey(Size7B), func() interface{} { return snaps })
	return z, up, written
}

// TestLoadArtifactsTableOrder: what SaveArtifacts puts in a directory comes
// back, in a fresh zoo of the same seed and scale, with equal values and in
// Table VII order — ED, DI, SM, EM, as Zoo.Patches builds them — although the
// saving zoo listed them otherwise and the files sort DI, ED, EM, SM; names
// outside the table follow, sorted.
func TestLoadArtifactsTableOrder(t *testing.T) {
	dir := t.TempDir()
	src, up, written := tinyArtifactZoo(3, 0.5)
	if err := src.SaveArtifacts(dir, Size7B); err != nil {
		t.Fatal(err)
	}
	z := NewZoo(3, 0.5)
	if err := z.LoadArtifacts(dir, Size7B); err != nil {
		t.Fatal(err)
	}
	got, want := z.Upstream(Size7B).Export(), up.Export()
	if got.Cfg != want.Cfg || got.Trust != want.Trust {
		t.Fatalf("upstream came back as %+v trust %v, want %+v trust %v", got.Cfg, got.Trust, want.Cfg, want.Trust)
	}
	for name, w := range want.Mats {
		if !slices.Equal(got.Mats[name], w) {
			t.Fatalf("upstream matrix %s changed in the round trip", name)
		}
	}
	var names []string
	for _, ns := range z.Patches(Size7B) {
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

// TestLoadArtifactsRefuses: a directory this zoo did not write — absent,
// empty, from another seed, scale or tier, without a manifest, short a patch,
// or with a truncated file — is refused with one of the two named errors and
// leaves the zoo with nothing loaded.
func TestLoadArtifactsRefuses(t *testing.T) {
	good := t.TempDir()
	src, _, _ := tinyArtifactZoo(3, 0.5)
	if err := src.SaveArtifacts(good, Size7B); err != nil {
		t.Fatal(err)
	}
	// damaged saves the same artifacts once more and applies one change to them.
	damaged := func(change func(dir string) error) string {
		dir := t.TempDir()
		if err := src.SaveArtifacts(dir, Size7B); err != nil {
			t.Fatal(err)
		}
		if err := change(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	truncate := func(name string) func(string) error {
		return func(dir string) error { return os.Truncate(filepath.Join(dir, name), 100) }
	}
	remove := func(name string) func(string) error {
		return func(dir string) error { return os.Remove(filepath.Join(dir, name)) }
	}
	for _, tc := range []struct {
		name  string
		dir   string
		seed  int64
		scale float64
		size  Size
		want  error
	}{
		{"missing directory", filepath.Join(good, "nope"), 3, 0.5, Size7B, ErrNoArtifacts},
		{"empty directory", t.TempDir(), 3, 0.5, Size7B, ErrNoArtifacts},
		{"no upstream file", damaged(remove(upstreamFile(Size7B))), 3, 0.5, Size7B, ErrNoArtifacts},
		{"other tier", good, 3, 0.5, Size13B, ErrNoArtifacts},
		{"other seed", good, 4, 0.5, Size7B, ErrArtifactMismatch},
		{"other scale", good, 3, 0.25, Size7B, ErrArtifactMismatch},
		{"no manifest", damaged(remove(manifestFile)), 3, 0.5, Size7B, ErrArtifactMismatch},
		{"other format", damaged(func(dir string) error {
			return os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"format":0,"seed":3,"scale":0.5,"size":"7B","patches":7}`), 0o644)
		}), 3, 0.5, Size7B, ErrArtifactMismatch},
		{"truncated upstream", damaged(truncate(upstreamFile(Size7B))), 3, 0.5, Size7B, ErrArtifactMismatch},
		{"truncated patch", damaged(truncate("patch-DI-Buy.gob")), 3, 0.5, Size7B, ErrArtifactMismatch},
		{"missing patch", damaged(remove("patch-DI-Buy.gob")), 3, 0.5, Size7B, ErrArtifactMismatch},
	} {
		z := NewZoo(tc.seed, tc.scale)
		err := z.LoadArtifacts(tc.dir, tc.size)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if len(z.cache) != 0 {
			t.Errorf("%s: a refused load left %d artifacts in the zoo", tc.name, len(z.cache))
		}
	}
	// The mismatch names both sides.
	err := NewZoo(4, 0.5).LoadArtifacts(good, Size7B)
	if msg := err.Error(); !strings.Contains(msg, "Seed:3") || !strings.Contains(msg, "Seed:4") {
		t.Errorf("seed mismatch message %q does not name both seeds", msg)
	}
}
