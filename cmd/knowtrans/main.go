// Command knowtrans is the command line of the KnowTrans reproduction: it
// runs the paper's experiments, builds and applies the upstream artifacts,
// serves adapted models over HTTP alone or behind a router, runs bulk jobs
// against either, and reads back the telemetry all of them write.
//
// Usage (`knowtrans <subcommand> -h` lists that subcommand's flags, each
// with its default — the one place either is stated):
//
//	knowtrans list
//	knowtrans experiment <id|all>
//	knowtrans build
//	knowtrans transfer -dataset EM/Walmart-Amazon
//	knowtrans serve
//	knowtrans route -backends URL,URL,...
//	knowtrans job [run|plan|resume] -spec FILE.json
//	knowtrans obs trace|top|prof ...
//
// Experiment ids: table1 table2 table3 table4 table5 table6 table7 fig4
// fig5 fig6 fig7 (see DESIGN.md for the mapping to the paper).
//
// The binary holds only these subcommands. The drills that show serving,
// routing and resuming never change an answer are Go tests that start this
// binary as child processes (drill_test.go, `go test -drill`).
//
// Every subcommand that runs the pipeline accepts the observability flags
// (obsFlags; DESIGN.md "Observability" — whose "Telemetry catalogue" lists
// every metric, span and event name — and "Profiling & resource
// accounting") and writes nothing but stdout unless one of them names a
// file; those that adapt models accept -faults for seeded chaos on the
// oracle path (DESIGN.md "Resilience & chaos testing").
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
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
  knowtrans experiment <id|all> [flags]
  knowtrans build [flags]
  knowtrans transfer -dataset <task/name> [flags]
  knowtrans serve [flags]
  knowtrans route -backends URL,URL,... [flags]
  knowtrans job [run|plan|resume] -spec FILE.json [flags]   (plan prints the shard layout and runs nothing)
  knowtrans obs trace FILE.jsonl [flags]
  knowtrans obs top [-n N] [flags]                          (-n 1: one look)
  knowtrans obs prof FILE.jsonl [flags]                     (a trace recorded with -sample)

knowtrans <subcommand> -h lists its flags and their defaults; all but list and
obs take the observability flags (-trace -metrics -pprof -sample -cpuprofile
-memprofile -profdir).`)
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
	if k := pred.(*core.Adapted).Knowledge; k != nil {
		fmt.Printf("\nSearched knowledge:\n%s\n", tasks.RenderKnowledgeText(k))
	}
	finish()
}
