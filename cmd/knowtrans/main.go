// Command knowtrans is the command line of the KnowTrans reproduction: it
// runs the paper's experiments, builds and applies the upstream artifacts,
// serves adapted models over HTTP alone or behind a router, runs bulk jobs
// against either, and reads back the telemetry all of them write.
//
// Usage:
//
//	knowtrans list
//	knowtrans experiment <id|all> [-scale 0.15] [-reps 3] [-seed 1] [-workers N]
//	knowtrans build [-artifacts DIR]
//	knowtrans transfer -dataset EM/Walmart-Amazon [-artifacts DIR]
//	knowtrans serve [-addr HOST:PORT]
//	knowtrans route -backends URL,URL,...
//	knowtrans job [run|plan|resume] -spec FILE.json [-backends URL,URL]
//	knowtrans obs trace|top|prof ...
//
// Experiment ids: table1 table2 table3 table4 table5 table6 table7 fig4
// fig5 fig6 fig7 (see DESIGN.md for the mapping to the paper).
//
// The binary holds only these subcommands. The drills that show serving,
// routing and resuming never change an answer are Go tests that start this
// binary as child processes (drill_test.go, `go test -drill`).
//
// Every subcommand accepts the observability flags -trace FILE.jsonl,
// -metrics FILE.json, -pprof ADDR, and the profiling family -sample,
// -timeline, -cpuprofile, -memprofile, -profdir (see internal/obs,
// internal/obs/profile, and the "Observability" and "Profiling & resource
// accounting" sections of DESIGN.md). `knowtrans experiment` prints its
// tables and writes nothing else unless one of those flags names a file;
// it accepts -faults to run the grid under seeded chaos injection on the
// oracle path (see internal/faults and the "Resilience & chaos testing"
// section of DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/eval"
	"repro/internal/lora"
	"repro/internal/tasks"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range eval.FullRegistry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "experiment":
		runExperiment(os.Args[2:])
	case "build":
		runBuild(os.Args[2:])
	case "transfer":
		runTransfer(os.Args[2:])
	case "serve":
		runServe(os.Args[2:])
	case "route":
		runRoute(os.Args[2:])
	case "job":
		runJob(os.Args[2:])
	case "obs":
		runObs(os.Args[2:])
	default:
		mistake("unknown command %q", os.Args[1])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  knowtrans list
  knowtrans experiment <id|all> [-scale S] [-reps N] [-seed K] [-workers W]
                       [-faults rate=R,seed=S[,kinds=a+b]] [obs flags]
  knowtrans build [-artifacts DIR] [-scale S] [-seed K] [obs flags]
  knowtrans transfer -dataset <task/name> [-artifacts DIR] [-scale S] [-seed K] [obs flags]
  knowtrans serve [-addr HOST:PORT] [-scale S] [-seed K] [-max-adapters N] [-max-batch N]
                  [-batch-wait D] [-timeout D] [-faults SPEC] [-access-log FILE|-]
                  [-slow D] [obs flags]
  knowtrans route -backends URL,URL,... [-addr HOST:PORT] [-replication N]
                  [-probe-interval D] [-fail-threshold N] [-hedge-delay D]
                  [-retry-budget N] [-drain-timeout D] [obs flags]
  knowtrans job [run|plan|resume] -spec FILE.json [-backends URL,URL]
                [-replication N] [-checkpoint DIR] [-dry-run] [-scale S]
                [-seed K] [-faults SPEC] [obs flags]
  knowtrans obs trace FILE.jsonl [-top N] [-json] [-trace-id ID] [-follow]
  knowtrans obs top [-url URL] [-interval D] [-n N] [-once]
  knowtrans obs prof TIMELINE.jsonl [-windows N] [-gate] [-json]

observability flags (any subcommand):
  -trace FILE.jsonl   write a span trace (Transfer → SKC stages → AKB iterations)
  -metrics FILE.json  write counters/gauges/latency histograms at exit
  -pprof ADDR         serve net/http/pprof plus live /metrics (Prometheus
                      text) and /metrics.json on ADDR while the run executes
  -sample D           poll runtime/metrics every D into the registry and a
                      JSONL timeline for knowtrans obs prof
  -timeline FILE      where -sample writes the timeline (default: next to
                      the trace file, else runtime.jsonl)
  -cpuprofile FILE    whole-run CPU profile (pprof-labeled by route/key/
                      batch/phase/cell)
  -memprofile FILE    heap profile written at exit
  -profdir DIR        slow-request-triggered CPU/heap captures (serve)`)
}

// newFlagSet returns a flag set that reports parse errors to the caller
// instead of exiting behind its back (flag.ExitOnError made the error
// branches below unreachable and skipped the usage text).
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parseOrExit parses args, printing the subcommand's defaults plus the
// global usage and exiting 2 on error.
func parseOrExit(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		usage()
		os.Exit(2)
	}
}

// mistake refuses an invocation the operator must correct: explanation, usage,
// exit 2 — before obsFlags.setup, so a refused invocation creates no file.
func mistake(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knowtrans: "+format+"\n", args...)
	usage()
	os.Exit(2)
}

func runExperiment(args []string) {
	fs := newFlagSet("experiment")
	zf := addZooFlags(fs, true)
	reps := fs.Int("reps", 1, "repetitions to average over (paper: 3)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"experiment cell workers (1 = serial; results are identical at any count)")
	of := addObsFlags(fs)
	if len(args) == 0 {
		mistake("experiment needs an id (or `all`)")
	}
	id := args[0]
	parseOrExit(fs, args[1:])
	exps := eval.Registry()
	if id != "all" {
		e, ok := eval.ExperimentByID(id)
		if !ok {
			mistake("unknown experiment %q; try `knowtrans list`", id)
		}
		exps = []eval.Experiment{e}
	}
	z, rec, finish := zf.open(of, false)
	z.Workers = *workers

	for _, e := range exps {
		// Each experiment runs under one root span so `knowtrans obs trace`
		// can account every stage's self time against a single wall-time
		// denominator.
		expRec, expSpan := rec.StartSpan("experiment")
		expSpan.SetAttr("id", e.ID)
		expSpan.SetAttr("scale", zf.scale)
		expSpan.SetAttr("reps", *reps)
		z.Rec = expRec
		start := time.Now()
		t := e.Run(z, *reps)
		wall := time.Since(start)
		expSpan.End()
		z.Rec = rec
		expRec.Event("experiment.done", "id", e.ID, "wall_s", wall.Seconds())
		fmt.Println(t.Render())
		fmt.Printf("(%s in %.1fs, scale=%.2f, reps=%d, seed=%d)\n\n", e.ID, wall.Seconds(), zf.scale, *reps, zf.seed)
	}
	finish()
}

// runTransfer prints the Jellyfish few-shot baseline beside KnowTrans on one
// downstream dataset. -artifacts fills the zoo from what `knowtrans build`
// wrote before anything reads it, so both rows adapt the loaded upstream model
// and patches — no zoo training runs — and print what a trained zoo prints.
func runTransfer(args []string) {
	fs := newFlagSet("transfer")
	artifacts := fs.String("artifacts", "", "artifact directory written by `knowtrans build` (optional)")
	zf := addZooFlags(fs, false)
	zf.dataset = fs.String("dataset", "EM/Walmart-Amazon", "downstream dataset key (task/name)")
	of := addObsFlags(fs)
	parseOrExit(fs, args)
	z, _, finish := zf.open(of, false)
	b := z.DownstreamByKey(*zf.dataset)
	if *artifacts != "" {
		if err := z.LoadArtifacts(*artifacts, eval.Size7B); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded upstream model + %d patches from %s\n", len(z.Patches(eval.Size7B)), *artifacts)
	}
	fewshot := b.DS.FewShot(rand.New(rand.NewSource(zf.seed)), eval.FewShotN)

	fmt.Printf("Transferring Jellyfish-7B to %s with %d labeled examples...\n", b.Key(), len(fewshot))
	actx := &baselines.AdaptContext{Bundle: b, FewShot: fewshot, Seed: zf.seed}
	jelly := z.Method(eval.MethodJellyfish).Adapt(actx)
	jellyScore := baselines.Evaluate(jelly, b.Kind, b.DS.Test)
	pred := z.KnowTransMethod(eval.Size7B, true, true, lora.StrategyAdaptive).Adapt(actx)
	ktScore := baselines.Evaluate(pred, b.Kind, b.DS.Test)

	fmt.Printf("\n%-24s %6.2f\n%-24s %6.2f\n", "Jellyfish-7B (few-shot):", jellyScore, "KnowTrans-7B:", ktScore)
	if kc, ok := pred.(interface{ SearchedKnowledge() *tasks.Knowledge }); ok && kc.SearchedKnowledge() != nil {
		fmt.Printf("\nSearched knowledge:\n%s\n", tasks.RenderKnowledgeText(kc.SearchedKnowledge()))
	}
	finish()
}
