package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// runJob drives the bulk tier from the command line: `knowtrans job
// run|plan|resume -spec FILE` executes (or previews) one declarative job
// against either an in-process registry or a -backends fleet through the
// cluster router — the same engine POST /v1/jobs runs.
func runJob(args []string) {
	verb := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb = args[0]
		args = args[1:]
	}
	switch verb {
	case "run", "plan", "resume":
	default:
		mistake("unknown job verb %q (want run|plan|resume)", verb)
	}
	fs := newFlagSet("job")
	specPath := fs.String("spec", "", "job spec `file` (JSON)")
	backendList := fs.String("backends", "",
		"comma-separated backend URLs; empty runs an in-process registry over the zoo of -scale, -seed and -faults")
	checkpointDir := fs.String("checkpoint", ".knowtrans-jobs", "checkpoint log `dir` (resume reads it, run appends to it)")
	copts := cluster.Options{}.WithDefaults()
	fs.IntVar(&copts.Replication, "replication", copts.Replication, "with -backends: distinct owners per key")
	zf := addZooFlags(fs, true)
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	// Validate before setup: an exit-2 mistake must not leave a 0-byte
	// -trace or -cpuprofile behind.
	if *specPath == "" {
		mistake("job needs -spec")
	}
	z, rec, finish := zf.open(of, true)
	sp, err := jobs.ParseSpecFile(*specPath)
	if err != nil {
		fatal(err)
	}

	var res serve.Resolver
	if copts.Backends = splitBackends(*backendList); len(copts.Backends) > 0 {
		copts.Seed, copts.Rec = zf.seed, rec
		r, err := cluster.New(copts)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		res = r
	} else {
		res = serve.NewRegistry(zooTransferer(z), serve.Options{Rec: rec})
	}

	eng := &jobs.Engine{Res: res, CheckpointDir: *checkpointDir, Rec: rec}

	p, err := eng.Plan(sp)
	if err != nil {
		fatal(err)
	}
	if verb == "plan" {
		var b strings.Builder
		p.Render(&b)
		fmt.Print(b.String())
		finish()
		return
	}
	ckptPath := jobs.CheckpointPath(*checkpointDir, p.ID)
	if verb == "resume" {
		if _, err := os.Stat(ckptPath); err != nil {
			fatal(fmt.Errorf("job: nothing to resume: %s has no checkpoint log (%v)", p.ID, err))
		}
	}
	fmt.Printf("job %s: %d rows over %d shards → %s (checkpoint %s)\n",
		p.ID, p.Rows, len(p.Shards), sp.Output.Path, ckptPath)
	result, err := eng.Run(context.Background(), p, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %s: done — %d rows in %.2fs (%.0f rows/s), %d shards (%d resumed), %d row failures, %d retries\n",
		result.ID, result.Rows, result.WallS, float64(result.Rows)/result.WallS,
		result.Shards, result.ShardsResumed, result.RowFailures, result.Retries)
	fmt.Printf("wrote %s\n", result.Output)
	finish()
}
