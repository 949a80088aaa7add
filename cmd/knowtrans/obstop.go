package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/serve"
)

// runObsTop is the live operator view: it polls a running server's
// /metrics.json and renders in-flight requests, per-key queue depths, and
// rolling p50/p95 (quantiles over the bucket-count deltas between polls,
// so they describe the last interval, not the process lifetime). When the
// slowest active latency bucket carries a trace-ID exemplar, the view names
// it — the handle to pull with `obs trace -trace-id`.
func runObsTop(args []string) {
	fs := newFlagSet("obs top")
	url := fs.String("url", "http://localhost:8080", "base `URL` of the running server")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	n := fs.Int("n", 0, "stop after N refreshes (0 = run until interrupted)")
	parseOrExit(fs, args)

	client := &http.Client{Timeout: 10 * time.Second}
	fetch := func() (snap obs.RegistrySnapshot, err error) {
		err = serve.Call(context.Background(), client, http.MethodGet, *url+"/metrics.json", nil, nil, &snap)
		return snap, err
	}

	var prev obs.RegistrySnapshot
	for i := 0; *n <= 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := fetch()
		if err != nil {
			// A server that is down mid-watch is a finding, not a crash.
			fmt.Fprintf(os.Stderr, "knowtrans: obs top: %v\n", err)
			if i == 0 {
				os.Exit(1)
			}
			continue
		}
		stats := analyze.BuildTop(prev, cur)
		fmt.Printf("%s  ", time.Now().Format("15:04:05"))
		if err := stats.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		prev = cur
	}
}
