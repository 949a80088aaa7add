package main

import (
	"fmt"
	"os"

	"repro/internal/eval"
)

// The build subcommand trains the upstream DP-LLM and extracts the SKC
// patch library once, persisting both to disk so later transfers (or other
// tools) can reuse them without retraining:
//
//	knowtrans build -artifacts ./artifacts [-scale 0.15] [-seed 1]
//
// The layout, and what a loader checks first, is eval.Zoo.SaveArtifacts.
func runBuild(args []string) {
	fs := newFlagSet("build")
	dir := fs.String("artifacts", "./artifacts", "output directory")
	zf := addZooFlags(fs, false)
	of := addObsFlags(fs)
	parseOrExit(fs, args)
	z, _, finish := zf.open(of, false)
	fmt.Println("training upstream DP-LLM (base pretraining + multi-task SFT) and extracting knowledge patches...")
	if err := z.SaveArtifacts(*dir, eval.Size7B); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote upstream model + %d patches + manifest to %s\n", len(z.Patches(eval.Size7B)), *dir)
	finish()
}

// fatal aborts the process, first flushing any active trace/metrics
// recording so a failed run still leaves an analyzable record on disk.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "knowtrans:", err)
	runObsCleanup()
	os.Exit(1)
}
