package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs/analyze"
)

// The obs subcommand family is the consumption side of the -trace, -sample
// and -pprof flags: offline analysis of the JSONL span trace an instrumented
// run leaves behind (its spans, and the runtime samples -sample adds), and a
// live view of a server. It compares nothing: numbers from two commits meet
// only in benchmark/.
//
//	knowtrans obs trace t.jsonl [-top 10] [-trace-id ID] [-follow]
//	knowtrans obs top [-url URL] [-n N]
//	knowtrans obs prof t.jsonl [-gate]
func runObs(args []string) {
	if len(args) == 0 {
		obsMistake("obs needs a subcommand")
	}
	switch args[0] {
	case "trace":
		runObsTrace(args[1:])
	case "top":
		runObsTop(args[1:])
	case "prof":
		runObsProf(args[1:])
	default:
		obsMistake("unknown obs subcommand %q", args[0])
	}
}

// obsMistake refuses an obs invocation the operator must correct — a missing
// argument, or an input file that is missing, unreadable or holds nothing to
// analyze, is one, not a crash: explanation, usage, exit 2.
func obsMistake(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knowtrans: "+format+"\n", args...)
	obsUsage()
	os.Exit(2)
}

// traceArg parses `obs trace|prof FILE [flags]` and returns the file.
func traceArg(fs *flag.FlagSet, sub string, args []string) string {
	path := parseAroundArg(fs, args)
	if path == "" {
		obsMistake("obs %s needs a trace file", sub)
	}
	return path
}

func loadTrace(path string) *analyze.Trace {
	tr, err := analyze.LoadFile(path)
	if err != nil {
		obsMistake("%v", err)
	}
	return tr
}

func obsUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  knowtrans obs trace FILE.jsonl [-top N] [-trace-id ID] [-follow] [-interval D]
      analyze a span trace: per-stage aggregates (count, total/self time,
      p50/p95), the critical path, the slowest spans, and event counts.
      -trace-id reassembles one request's end-to-end path (its spans,
      events, and the shared batch/transfer work linked into it); -follow
      tails the file, re-rendering as new records land
  knowtrans obs top [-url URL] [-interval D] [-n N]
      live operator view of a running server: polls /metrics.json for
      in-flight requests, per-key queue depths, and rolling p50/p95
  knowtrans obs prof FILE.jsonl [-gate]
      summarize the runtime samples of a trace recorded with -trace and
      -sample: heap growth slope, GC pause p50/p95, goroutine-leak detection
      across four windows and at the final sample, alloc rate. -gate exits 1
      on a suspected leak`)
}

func runObsTrace(args []string) {
	fs := newFlagSet("obs trace")
	top := fs.Int("top", 10, "slowest-spans entries to report")
	traceID := fs.String("trace-id", "", "reassemble one request's end-to-end path by trace `id`")
	follow := fs.Bool("follow", false, "tail the file: re-render as new records land")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval in -follow mode")
	path := traceArg(fs, "trace", args)

	render := func(tr *analyze.Trace) error {
		if *traceID != "" {
			return tr.FilterTrace(*traceID).WriteText(os.Stdout)
		}
		return analyze.NewReport(tr, *top).WriteText(os.Stdout)
	}

	if !*follow {
		tr := loadTrace(path)
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
		tr := loadTrace(path)
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

// runObsProf summarizes the runtime samples of a trace (the events -sample
// writes beside -trace's spans); -gate fails on the samples' own leak
// verdicts.
func runObsProf(args []string) {
	fs := newFlagSet("obs prof")
	gate := fs.Bool("gate", false, "exit 1 when the samples show a goroutine leak or unbounded heap growth")
	path := traceArg(fs, "prof", args)

	rep := analyze.NewProfReport(loadTrace(path))
	if rep.Samples == 0 {
		obsMistake("%s holds no runtime.sample events (record them with -trace and -sample)", path)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	if *gate && rep.Unhealthy() {
		os.Exit(1)
	}
}
