package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs/analyze"
)

// The obs subcommand family is the consumption side of the -trace, -sample
// and -pprof flags: offline analysis of the JSONL span traces and runtime
// timelines an instrumented run leaves behind, and a live view of a server.
// It compares nothing: numbers from two commits meet only in benchmark/.
//
//	knowtrans obs trace t.jsonl [-top 10] [-json] [-trace-id ID] [-follow]
//	knowtrans obs top [-url URL] [-n N]
//	knowtrans obs prof timeline.jsonl [-windows 4] [-gate] [-json]
func runObs(args []string) {
	if len(args) == 0 {
		obsUsage()
		os.Exit(2)
	}
	switch args[0] {
	case "trace":
		runObsTrace(args[1:])
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
  knowtrans obs top [-url URL] [-interval D] [-n N]
      live operator view of a running server: polls /metrics.json for
      in-flight requests, per-key queue depths, and rolling p50/p95
  knowtrans obs prof TIMELINE.jsonl [-windows N] [-json] [-gate]
      summarize a runtime-metrics timeline recorded with -sample: heap
      growth slope, GC pause p50/p95, goroutine-leak detection across
      windows, alloc rate. -gate exits 1 on a suspected leak`)
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
// -sample flag records); -gate fails on the timeline's own leak verdicts.
func runObsProf(args []string) {
	fs := newFlagSet("obs prof")
	windows := fs.Int("windows", 4, "analysis windows for leak detection")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	gate := fs.Bool("gate", false, "exit 1 when the timeline shows a goroutine leak or unbounded heap growth")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "knowtrans: obs prof needs a runtime timeline file")
		obsUsage()
		os.Exit(2)
	}
	path := args[0]
	parseOrExit(fs, args[1:])

	rows, err := analyze.LoadTimeline(path)
	if err != nil {
		// Same contract as obs trace: an unreadable input is an operator
		// mistake — explain, show usage, exit 2.
		fmt.Fprintf(os.Stderr, "knowtrans: %v\n", err)
		obsUsage()
		runObsCleanup()
		os.Exit(2)
	}
	rep := analyze.NewProfReport(rows, *windows)
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
