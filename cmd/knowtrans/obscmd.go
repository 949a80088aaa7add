package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs/analyze"
)

// The obs subcommand family is the consumption side of the -trace/-metrics
// flags: offline analysis of the JSONL span traces and BENCH_run.json
// documents an instrumented run leaves behind.
//
//	knowtrans obs trace t.jsonl [-top 10] [-json]
//	knowtrans obs diff A.json B.json [-rel-tol F] [-wall-tol F] [-strict] [-verbose] [-json]
func runObs(args []string) {
	if len(args) == 0 {
		obsUsage()
		os.Exit(2)
	}
	switch args[0] {
	case "trace":
		runObsTrace(args[1:])
	case "diff":
		runObsDiff(args[1:])
	case "top":
		runObsTop(args[1:])
	case "prof":
		runObsProf(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "knowtrans: unknown obs subcommand %q\n", args[0])
		obsUsage()
		os.Exit(2)
	}
}

func obsUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  knowtrans obs trace FILE.jsonl [-top N] [-json] [-trace-id ID] [-follow] [-interval D]
      analyze a span trace: per-stage aggregates (count, total/self time,
      p50/p95), the critical path, the slowest spans, and event counts.
      -trace-id reassembles one request's end-to-end path (its spans,
      events, and the shared batch/transfer work linked into it); -follow
      tails the file, re-rendering as new records land
  knowtrans obs top [-url URL] [-interval D] [-n N] [-once]
      live operator view of a running server: polls /metrics.json for
      in-flight requests, per-key queue depths, and rolling p50/p95
  knowtrans obs diff A.json B.json [-rel-tol F] [-wall-tol F] [-strict] [-verbose] [-json]
      compare two BENCH_run.json or BENCH_allocs.json documents
      metric-by-metric; exits 1 when any metric regressed beyond the
      relative tolerance
  knowtrans obs prof TIMELINE.jsonl [-windows N] [-json] [-gate] [-diff BASELINE.jsonl] [-rel-tol F]
      summarize a runtime-metrics timeline recorded with -sample: heap
      growth slope, GC pause p50/p95, goroutine-leak detection across
      windows, alloc rate. -gate exits 1 on a suspected leak; -diff
      compares against a baseline timeline and exits 1 on budget
      regression — the perf sentinel`)
}

func runObsTrace(args []string) {
	fs := newFlagSet("obs trace")
	top := fs.Int("top", 10, "slowest-spans entries to report")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	traceID := fs.String("trace-id", "", "reassemble one request's end-to-end path by trace `id`")
	follow := fs.Bool("follow", false, "tail the file: re-render as new records land")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval in -follow mode")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "knowtrans: obs trace needs a trace file")
		obsUsage()
		os.Exit(2)
	}
	path := args[0]
	parseOrExit(fs, args[1:])

	load := func() *analyze.Trace {
		tr, err := analyze.LoadFile(path)
		if err != nil {
			// A missing or unreadable trace file is an operator mistake, not a
			// crash: explain, show usage, exit 2 like any other bad invocation.
			fmt.Fprintf(os.Stderr, "knowtrans: %v\n", err)
			obsUsage()
			runObsCleanup()
			os.Exit(2)
		}
		return tr
	}

	render := func(tr *analyze.Trace) error {
		if *traceID != "" {
			p := tr.FilterTrace(*traceID)
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				return enc.Encode(p)
			}
			return p.WriteText(os.Stdout)
		}
		rep := analyze.NewReport(tr, *top)
		if *asJSON {
			return rep.WriteJSON(os.Stdout)
		}
		return rep.WriteText(os.Stdout)
	}

	if !*follow {
		tr := load()
		if err := render(tr); err != nil {
			fatal(err)
		}
		if *traceID != "" && tr.FilterTrace(*traceID).Empty() {
			os.Exit(1)
		}
		return
	}

	// Follow mode: poll the file, re-rendering whenever it grows. LoadFile
	// tolerates a truncated tail, so reading mid-write is safe. With a
	// -trace-id the loop exits once the filtered path is non-empty and has
	// stopped growing (the request completed); without one it tails forever.
	lastCount := -1
	stableFor := 0
	for {
		tr := load()
		n := len(tr.Records)
		if n != lastCount {
			lastCount = n
			stableFor = 0
			if *traceID == "" || !tr.FilterTrace(*traceID).Empty() {
				if err := render(tr); err != nil {
					fatal(err)
				}
			}
		} else {
			stableFor++
		}
		if *traceID != "" && stableFor >= 2 && !tr.FilterTrace(*traceID).Empty() {
			return
		}
		time.Sleep(*interval)
	}
}

// runObsProf summarizes a runtime-metrics timeline (the JSONL the
// -sample flag records) and optionally gates it: -gate fails on the
// timeline's own leak verdicts, -diff fails on budget regressions
// against a baseline timeline.
func runObsProf(args []string) {
	fs := newFlagSet("obs prof")
	windows := fs.Int("windows", 4, "analysis windows for leak detection")
	asJSON := fs.Bool("json", false, "emit the report/diff as JSON instead of text")
	gate := fs.Bool("gate", false, "exit 1 when the timeline shows a goroutine leak or unbounded heap growth")
	baseline := fs.String("diff", "", "baseline timeline `file`; exit 1 on budget regression against it")
	relTol := fs.Float64("rel-tol", 0.25, "relative headroom for -diff budgets")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "knowtrans: obs prof needs a runtime timeline file")
		obsUsage()
		os.Exit(2)
	}
	path := args[0]
	parseOrExit(fs, args[1:])

	load := func(p string) *analyze.ProfReport {
		rows, err := analyze.LoadTimeline(p)
		if err != nil {
			// Same contract as obs trace: an unreadable input is an operator
			// mistake — explain, show usage, exit 2.
			fmt.Fprintf(os.Stderr, "knowtrans: %v\n", err)
			obsUsage()
			runObsCleanup()
			os.Exit(2)
		}
		return analyze.NewProfReport(rows, *windows)
	}

	rep := load(path)
	if *baseline != "" {
		base := load(*baseline)
		bud := analyze.DefaultProfBudget()
		bud.RelTol = *relTol
		d := analyze.DiffProf(base, rep, bud)
		var err error
		if *asJSON {
			err = d.WriteJSON(os.Stdout)
		} else {
			fmt.Printf("prof diff %s -> %s\n", *baseline, path)
			err = d.WriteText(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		if d.HasRegressions() {
			os.Exit(1)
		}
		return
	}

	var err error
	if *asJSON {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if *gate && rep.Unhealthy() {
		os.Exit(1)
	}
}

func runObsDiff(args []string) {
	fs := newFlagSet("obs diff")
	relTol := fs.Float64("rel-tol", 0, "relative metric change treated as noise (0 = any change counts)")
	wallTol := fs.Float64("wall-tol", 0, "gate wall time when relative increase exceeds this (0 = report only)")
	strict := fs.Bool("strict", false, "any change (including improvements and added metrics) is a regression — the determinism gate")
	verbose := fs.Bool("verbose", false, "also list unchanged metrics and wall-time deltas")
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of text")
	if len(args) < 2 || strings.HasPrefix(args[0], "-") || strings.HasPrefix(args[1], "-") {
		fmt.Fprintln(os.Stderr, "knowtrans: obs diff needs two BENCH_run.json files")
		obsUsage()
		os.Exit(2)
	}
	pathA, pathB := args[0], args[1]
	parseOrExit(fs, args[2:])
	a, err := analyze.LoadBenchRun(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := analyze.LoadBenchRun(pathB)
	if err != nil {
		fatal(err)
	}
	d := analyze.DiffBenchRuns(a, b, analyze.DiffOptions{
		RelTol:  *relTol,
		WallTol: *wallTol,
		Strict:  *strict,
	})
	if *asJSON {
		err = d.WriteJSON(os.Stdout)
	} else {
		fmt.Printf("diff %s -> %s\n", pathA, pathB)
		err = d.WriteText(os.Stdout, *verbose)
	}
	if err != nil {
		fatal(err)
	}
	if d.HasRegressions() {
		os.Exit(1)
	}
}
