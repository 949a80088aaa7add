package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/skc"
)

// The build subcommand trains the upstream DP-LLM and extracts the SKC
// patch library once, persisting both to disk so later transfers (or other
// tools) can reuse them without retraining:
//
//	knowtrans build -artifacts ./artifacts [-scale 0.15] [-seed 1]
//
// Artifacts layout: upstream-7B.gob (model snapshot) plus one
// patch-<task>-<dataset>.gob per upstream dataset.
func runBuild(args []string) {
	fs := newFlagSet("build")
	dir := fs.String("artifacts", "./artifacts", "output directory")
	scale := fs.Float64("scale", 0.15, "dataset scale")
	seed := fs.Int64("seed", 1, "random seed")
	of := addObsFlags(fs)
	parseOrExit(fs, args)
	rec, finish, err := of.setup()
	if err != nil {
		fatal(err)
	}
	rec.SeedTraceIDs(*seed)
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	z := eval.NewZoo(*seed, *scale)
	z.Rec = rec
	fmt.Println("training upstream DP-LLM (base pretraining + multi-task SFT)...")
	if err := saveUpstream(*dir, z.Upstream(eval.Size7B)); err != nil {
		fatal(err)
	}
	fmt.Println("extracting knowledge patches...")
	for _, ns := range z.Patches(eval.Size7B) {
		if err := savePatch(*dir, ns); err != nil {
			fatal(err)
		}
	}
	if err := finish(); err != nil {
		fatal(err)
	}
}

const upstreamFile = "upstream-7B.gob"

func saveUpstream(dir string, m *model.Model) error {
	blob, err := m.Export().Encode()
	return writeArtifact(dir, upstreamFile, blob, err)
}

func savePatch(dir string, ns *skc.NamedSnapshot) error {
	blob, err := ns.Snap.Encode()
	return writeArtifact(dir, "patch-"+strings.ReplaceAll(ns.Name, "/", "-")+".gob", blob, err)
}

// writeArtifact writes one encoded artifact (or passes on its encoding error)
// and reports the file.
func writeArtifact(dir, name string, blob []byte, err error) error {
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d KiB)\n", path, len(blob)/1024)
	return nil
}

// loadArtifacts restores an upstream model and patch library written by
// runBuild. Returns (nil, nil, nil) when the directory has no artifacts.
//
// Patches come back in Table VII order (datagen.UpstreamKeys, as Zoo.Patches
// lists them), not in the directory's lexical order; names outside the table
// follow, sorted. The order is arithmetic, not presentation: patches are
// attached, summed into a layer's output and given their columns of its
// factor bank in this order, so a loaded library must fuse exactly like the
// in-memory one.
func loadArtifacts(dir string) (*model.Model, []*skc.NamedSnapshot, error) {
	blob, err := os.ReadFile(filepath.Join(dir, upstreamFile))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	snap, err := model.DecodeSnapshot(blob)
	if err != nil {
		return nil, nil, err
	}
	m := model.New(snap.Cfg)
	if err := m.LoadSnapshot(snap); err != nil {
		return nil, nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "patch-*.gob"))
	if err != nil {
		return nil, nil, err
	}
	var snaps []*skc.NamedSnapshot
	for _, p := range matches {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		s, err := lora.DecodeSnapshot(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		snaps = append(snaps, &skc.NamedSnapshot{Name: s.Name, Snap: s})
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
	return m, snaps, nil
}

// fatal aborts the process, first flushing any active trace/metrics
// recording so a failed run still leaves an analyzable record on disk.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "knowtrans:", err)
	runObsCleanup()
	os.Exit(1)
}
