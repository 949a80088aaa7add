package main

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// runRoute starts the sharded serving tier: cluster flags → a consistent-
// hash router over a fleet of `knowtrans serve` backends → the shared
// service wiring (serviceFlags), which exposes the exact same HTTP API a
// single backend does (the router implements serve.Resolver).
func runRoute(args []string) {
	fs := newFlagSet("route")
	// The router's deadline must outlast a backend's own (60s), or a slow
	// cold start is cut off at the hop that could still have answered.
	opts := serve.Options{RequestTimeout: 120 * time.Second}.WithDefaults()
	sf := addServiceFlags(fs, &opts, "localhost:8090")
	copts := cluster.Options{Seed: 1}.WithDefaults()
	backendList := fs.String("backends", "", "comma-separated backend base URLs, e.g. http://10.0.0.7:8080,http://10.0.0.8:8080")
	fs.IntVar(&copts.Replication, "replication", copts.Replication, "distinct backends owning each key (primary + replicas)")
	fs.DurationVar(&copts.ProbeInterval, "probe-interval", copts.ProbeInterval, "base /readyz probe period per backend")
	fs.DurationVar(&copts.HedgeDelay, "hedge-delay", copts.HedgeDelay, "fixed backup-request delay (0 = p95-derived, negative disables hedging)")
	fs.Int64Var(&copts.Seed, "seed", copts.Seed, "seed for probe jitter")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	// Validate before setup: an exit-2 mistake must not leave a 0-byte
	// -trace or -cpuprofile behind.
	if copts.Backends = splitBackends(*backendList); len(copts.Backends) == 0 {
		mistake("route needs -backends")
	}
	rec, finish := of.start(true)
	opts.Rec, copts.Rec = rec, rec
	// Again, now that the fleet is known: Replication clamps to it, so the
	// banner prints what the ring uses.
	copts = copts.WithDefaults()
	r, err := cluster.New(copts)
	if err != nil {
		fatal(err)
	}
	sf.serve(r, of, func(bound net.Addr) {
		fmt.Printf("knowtrans route on http://%s (%d backends, replication=%d, hedge-delay=%s)\n",
			bound, len(copts.Backends), copts.Replication, copts.HedgeDelay)
		for _, b := range copts.Backends {
			fmt.Printf("  backend %s\n", b)
		}
	})
	// Drained: stop probing before finish takes the sampler's final sample.
	r.Close()
	finish()
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}
