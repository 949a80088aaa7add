package eval

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/datagen"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/skc"
)

var (
	// ErrNoArtifacts: nothing was built there — the directory, or the tier's
	// upstream file in it, does not exist.
	ErrNoArtifacts = errors.New("eval: no artifacts (run `knowtrans build` first)")
	// ErrArtifactMismatch: artifacts this zoo must not load — another seed,
	// scale, tier or format, no manifest, a missing patch, an undecodable file.
	ErrArtifactMismatch = errors.New("eval: artifact mismatch")
)

// artifactManifest identifies the zoo a directory was saved from. Artifacts
// are a pure function of the first four values (and of the code: bump Format
// when TestTransferDigest's constant moves), so equal manifests mean equal
// bits. Patches counts the library's files, so a partial copy is refused too.
type artifactManifest struct {
	Format  int     `json:"format"`
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Size    Size    `json:"size"`
	Patches int     `json:"patches"`
}

func (z *Zoo) manifest(size Size, patches int) artifactManifest {
	return artifactManifest{Format: 1, Seed: z.Seed, Scale: z.Scale, Size: size, Patches: patches}
}

const manifestFile = "manifest.json"

func upstreamFile(size Size) string { return "upstream-" + string(size) + ".gob" }

// SaveArtifacts writes a tier's two expensive builds (building what the zoo
// has not built yet) into dir: upstream-<size>.gob, a model.Snapshot; one
// patch-<task>-<dataset>.gob per upstream dataset, a lora.Snapshot; and last,
// so that a half-written directory has none, manifest.json. Base is not
// persisted: nothing downstream of Upstream and Patches reads it, and a zoo
// that wants it anyway (Centroids, the Mistral rows) still builds it.
func (z *Zoo) SaveArtifacts(dir string, size Size) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, blob []byte, err error) error {
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
	}
	blob, err := z.Upstream(size).Export().Encode()
	if err := write(upstreamFile(size), blob, err); err != nil {
		return err
	}
	patches := z.Patches(size)
	for _, ns := range patches {
		blob, err := ns.Snap.Encode()
		if err := write("patch-"+strings.ReplaceAll(ns.Name, "/", "-")+".gob", blob, err); err != nil {
			return err
		}
	}
	blob, err = json.Marshal(z.manifest(size, len(patches)))
	return write(manifestFile, append(blob, '\n'), err)
}

// LoadArtifacts publishes what SaveArtifacts wrote under the memo keys
// Upstream(size) and Patches(size) read, so a loaded zoo is an ordinary zoo
// whose two most expensive builds are already done; everything else still
// builds lazily. Call it before the zoo's first use and after setting Rec,
// which the loaded model carries like a built one. It loads only what this zoo
// would have built itself (see the two errors), or nothing.
//
// Patches come back in Table VII order (datagen.UpstreamKeys, as Patches
// builds them), not in the directory's lexical order; names outside the table
// follow, sorted. The order is arithmetic, not presentation: patches are
// attached, summed into a layer's output and given their columns of its
// factor bank in this order, so a loaded library must fuse exactly like the
// in-memory one.
func (z *Zoo) LoadArtifacts(dir string, size Size) error {
	upBlob, err := os.ReadFile(filepath.Join(dir, upstreamFile(size)))
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: no %s in %s", ErrNoArtifacts, upstreamFile(size), dir)
	}
	if err != nil {
		return err
	}
	mismatch := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrArtifactMismatch, dir, fmt.Sprintf(format, args...))
	}
	var got artifactManifest
	blob, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err == nil {
		err = json.Unmarshal(blob, &got)
	}
	if err != nil {
		return mismatch("manifest: %v", err)
	}
	if want := z.manifest(size, got.Patches); got != want {
		return mismatch("built from %+v, this zoo is %+v", got, want)
	}
	snap, err := model.DecodeSnapshot(upBlob)
	if err != nil {
		return mismatch("%s: %v", upstreamFile(size), err)
	}
	m := model.New(snap.Cfg)
	if err := m.LoadSnapshot(snap); err != nil {
		return mismatch("%s: %v", upstreamFile(size), err)
	}
	m.Rec = z.Rec

	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var snaps []*skc.NamedSnapshot
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "patch-") || filepath.Ext(e.Name()) != ".gob" {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		s, err := lora.DecodeSnapshot(blob)
		if err != nil {
			return mismatch("%s: %v", e.Name(), err)
		}
		snaps = append(snaps, &skc.NamedSnapshot{Name: s.Name, Snap: s})
	}
	if len(snaps) != got.Patches {
		return mismatch("%d patch files, manifest says %d", len(snaps), got.Patches)
	}
	table := datagen.UpstreamKeys()
	rank := func(name string) int {
		if i := slices.Index(table, name); i >= 0 {
			return i
		}
		return len(table)
	}
	slices.SortStableFunc(snaps, func(a, b *skc.NamedSnapshot) int {
		return cmp.Or(cmp.Compare(rank(a.Name), rank(b.Name)), cmp.Compare(a.Name, b.Name))
	})

	z.memo(upstreamKey(size), func() interface{} { return m })
	z.memo(patchesKey(size), func() interface{} { return snaps })
	return nil
}
