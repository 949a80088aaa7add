package main

import (
	"context"
	"errors"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/serve"
)

// runServe starts the inference service: zoo flags + registry flags → an
// adapter registry over the zoo's TransferDataset → the shared service
// wiring (serviceFlags), which fronts it with the HTTP API of internal/serve.
func runServe(args []string) {
	fs := newFlagSet("serve")
	opts := serve.Options{}.WithDefaults()
	sf := addServiceFlags(fs, &opts, "localhost:8080")
	zf := addZooFlags(fs, true)
	fs.IntVar(&opts.MaxAdapters, "max-adapters", opts.MaxAdapters, "resident-adapter bound (LRU eviction beyond it)")
	fs.IntVar(&opts.MaxBatch, "max-batch", opts.MaxBatch, "per-adapter micro-batch cap (1 disables batching)")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	z, rec, finish := zf.open(of, true)
	opts.Rec = rec
	reg := serve.NewRegistry(zooTransferer(z), opts)
	sf.serve(reg, of, func(bound net.Addr) {
		// The bound address is printed first and alone on its line: whoever
		// starts a backend on 127.0.0.1:0 (the drills do) parses this line
		// for the kernel-assigned port.
		fmt.Printf("knowtrans serve on http://%s (scale=%.2f seed=%d max-adapters=%d max-batch=%d)\n",
			bound, zf.scale, zf.seed, opts.MaxAdapters, opts.MaxBatch)
		endpoints := "endpoints: POST /v1/predict  POST+GET /v1/adapters  GET /healthz /readyz /metrics.json"
		if sf.jobsDir != "" {
			endpoints += "  POST+GET /v1/jobs"
		}
		fmt.Println(endpoints)
		fmt.Printf("adapter keys: %d downstream datasets (GET /v1/adapters after a warm, or `knowtrans list`)\n",
			len(z.DownstreamKeys()))
	})
	// Drained: stop every resident batcher before finish takes the
	// sampler's final sample, which `obs prof -gate` compares to the first.
	reg.Close()
	finish()
}

// zooTransferer adapts eval.Zoo.TransferDataset to the registry's seam,
// mapping unknown datasets to the sentinel the HTTP layer turns into 404.
func zooTransferer(z *eval.Zoo) serve.Transferer {
	return func(ctx context.Context, key string) (serve.Adapter, error) {
		ad, err := z.TransferDataset(ctx, key, eval.Size7B)
		if err != nil {
			if errors.Is(err, eval.ErrUnknownDataset) {
				return nil, fmt.Errorf("%w: %v", serve.ErrUnknownKey, err)
			}
			return nil, err
		}
		return ad, nil
	}
}

// Compile-time statement that the production Adapted model satisfies the
// serving seam.
var _ serve.Adapter = (*core.Adapted)(nil)
