package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// rig is one workload's system under test, built the way `knowtrans serve`
// / `route` / `job run` build theirs, on in-process loopback listeners.
// With a nil *tracing it is the program's own objects and nothing else.
type rig struct {
	spec workloadSpec
	e    *env
	tr   *tracing
	seed int64

	url        string // where the clients send (serve and route workloads)
	registries []*serve.Registry
	router     *cluster.Router
	closers    []func()

	// warm are the keys resident before the window opens.
	warm []string
	gen  generator
	// cycle > 1 ends the window only on a multiple of it (httpLoad.cycle).
	cycle int

	// job_bulk only.
	jobRes   serve.Resolver
	tmp      string
	input    string
	expected []byte
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// transfers sums Registry.Snapshot's Transfer counts over the rig.
func (r *rig) transfers() int64 {
	var n int64
	for _, reg := range r.registries {
		for _, st := range reg.Snapshot() {
			n += st.Transfers
		}
	}
	return n
}

// backend starts one serve.Server over a fresh Registry and returns its URL.
func (r *rig) backend(opts serve.Options) string {
	reg := serve.NewRegistry(r.transferer(), opts)
	r.registries = append(r.registries, reg)
	srv := serve.NewServer(r.tr.resolver(reg, "serve.resolve", true), opts)
	return r.listen(srv)
}

func (r *rig) listen(h http.Handler) string {
	ts := httptest.NewServer(r.tr.handler(h))
	r.closers = append(r.closers, ts.Close)
	return ts.URL
}

// keysOf says which references a workload needs built in set-up.
func keysOf(workload string) []string {
	switch workload {
	case "serve_warm", "route_warm":
		return hot4
	case "job_bulk":
		return []string{jobKey}
	default:
		return nil // all 13
	}
}

// newRig builds the workload's system and brings it to the ready state:
// servers listening, warm keys resident, connections and the router's
// latency window exercised by a short unmeasured warm-up.
func newRig(spec workloadSpec, e *env, tr *tracing, seed int64, outDir string) (r *rig, warmup *window, err error) {
	r = &rig{spec: spec, e: e, tr: tr, seed: seed}
	defer func(built *rig) { // the error returns set r to nil
		if err != nil {
			built.close()
		}
	}(r)
	switch spec.Name {
	case "adapt_cold":
		// 13 keys cycling through 4 slots: every request is a miss, and the
		// window ends on a whole round.
		r.url = r.backend(serve.Options{MaxAdapters: 4})
		r.gen = cyclic(e, e.keys, seed)
		r.cycle = len(e.keys)
	case "serve_warm":
		r.url = r.backend(serve.Options{})
		r.warm = hot4
		r.gen = uniform(e, hot4, seed)
	case "serve_mixed":
		// 6 hot keys stay resident; the 7 cold ones churn through the two
		// spare slots.
		r.url = r.backend(serve.Options{MaxAdapters: 8})
		r.warm = hot6
		r.gen = mixed(e, hot6, others(e.keys, hot6), seed)
	case "route_warm":
		backends := []string{r.backend(serve.Options{}), r.backend(serve.Options{})}
		opts := cluster.Options{Backends: backends, Seed: zooSeed}
		if tr != nil {
			opts.Client = &http.Client{Transport: &roundTripper{inner: http.DefaultTransport, t: tr}, Timeout: 60 * time.Second}
		}
		router, err := cluster.New(opts)
		if err != nil {
			return nil, nil, err
		}
		r.router = router
		r.closers = append(r.closers, router.Close)
		r.url = r.listen(serve.NewServer(tr.resolver(router, "cluster.route", false), serve.Options{}))
		r.warm = hot4
		r.gen = uniform(e, hot4, seed)
	case "job_bulk":
		reg := serve.NewRegistry(r.transferer(), serve.Options{})
		r.registries = append(r.registries, reg)
		r.jobRes = tr.resolver(reg, "serve.resolve", true)
		r.warm = []string{jobKey}
		if err := r.writeJobInput(outDir); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", spec.Name)
	}

	// Pre-warm through the same face the traffic uses.
	var warmer serve.Resolver = r.registries[0]
	if r.router != nil {
		warmer = r.router
	}
	for _, key := range r.warm {
		if _, err := warmer.Warm(context.Background(), key); err != nil {
			return nil, nil, fmt.Errorf("pre-warm %s: %w", key, err)
		}
	}
	if r.warm != nil && r.url != "" {
		// Untraced, unmeasured: 256 requests open the keep-alive connections
		// and fill the router's p95 window so hedging runs at its derived
		// delay.
		warmup = &window{Name: "warmup"}
		l := &httpLoad{url: r.url, clients: spec.Clients, gen: r.gen, e: e, minOps: 256}
		l.run(warmup, 0)
		if warmup.Failed > 0 {
			return nil, warmup, fmt.Errorf("warm-up: %d of %d requests failed: %s", warmup.Failed, warmup.Sent, warmup.FirstErr)
		}
	}
	return r, warmup, nil
}

func (r *rig) transferer() serve.Transferer {
	if r.tr != nil {
		return r.tr.transferer(r.e.zoo)
	}
	return zooTransferer(r.e.zoo)
}

// run measures the workload for d, and longer where fewer than minOps ops
// fit into d.
func (r *rig) run(name string, d time.Duration, minOps int) *window {
	if r.jobRes != nil {
		return measure(name, func(w *window) { r.runJobs(w, d, minOps) })
	}
	l := &httpLoad{url: r.url, clients: r.spec.Clients, gen: r.gen, e: r.e, tr: r.tr, minOps: minOps, cycle: r.cycle}
	return measure(name, func(w *window) { l.run(w, d) })
}

// ---- job_bulk ----

const (
	jobRows   = 2000 // one paper-scale test split
	jobShards = 8
)

// jobDataset builds one job's input: jobRows rows cycling the job key's
// test split from a row the seed picks, under fresh IDs, as an encoded JSON
// dataset; and the bytes the jsonl sink must hold for it.
func jobDataset(ref *reference, seed int64) (input, expected []byte, err error) {
	ds := &data.Dataset{Name: "bulk", Task: string(ref.kind)}
	var want bytes.Buffer
	start := int(draw(seed, 0, 4) % uint64(len(ref.test)))
	for i := 0; i < jobRows; i++ {
		row := (start + i) % len(ref.test)
		in := ref.test[row].Clone()
		in.ID = fmt.Sprintf("bulk-%05d", i)
		ds.Test = append(ds.Test, in)
		line, err := json.Marshal(struct {
			ID     string `json:"id"`
			Answer string `json:"answer"`
		}{in.ID, ref.want[row]})
		if err != nil {
			return nil, nil, err
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	var buf bytes.Buffer
	if err := dataio.EncodeJSON(ds, "", &buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), want.Bytes(), nil
}

// writeJobInput writes the run's one input file into a scratch directory
// under out/ that the rig removes when it closes.
func (r *rig) writeJobInput(outDir string) error {
	tmp, err := os.MkdirTemp(outDir, "job-")
	if err != nil {
		return err
	}
	r.tmp = tmp
	r.closers = append(r.closers, func() { os.RemoveAll(tmp) })
	input, expected, err := jobDataset(r.e.refs[jobKey], r.seed)
	if err != nil {
		return err
	}
	r.expected = expected
	r.input = filepath.Join(tmp, "input.json")
	return os.WriteFile(r.input, input, 0o644)
}

// jobSpec is the spec every job of the run uses: spec defaults (8 rows in
// flight x 2 shards at once), 8 shards, jsonl sink.
func (r *rig) jobSpec(output string) (*jobs.Spec, error) {
	sp := &jobs.Spec{
		Adapter: jobKey,
		Input:   jobs.Input{Path: r.input, Format: "json"},
		Output:  jobs.Output{Path: output, Format: "jsonl"},
		Shards:  jobShards,
	}
	return sp, sp.Normalize()
}

// runJobs runs whole jobs back to back for at least d and at least minOps
// of them. An op is one job,
// plan through output file; a unit is one correctly answered row. The wall
// is the sum of the op times: building a checkpoint directory's name and
// comparing the output with the expected bytes are the harness's work.
func (r *rig) runJobs(w *window, d time.Duration, minOps int) {
	deadline := time.Now().Add(d)
	var wall time.Duration
	for j := 0; j < minOps || time.Now().Before(deadline); j++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("job-%03d", j))
		output := filepath.Join(dir, "answers.jsonl")
		sp, err := r.jobSpec(output)
		if err != nil {
			w.Sent++
			w.fail(err.Error())
			return
		}
		// A fresh checkpoint directory per job: nothing to resume.
		eng := &jobs.Engine{Res: r.jobRes, CheckpointDir: filepath.Join(dir, "checkpoints")}

		span := r.tr.startOp("job")
		ctx := withSpan(context.Background(), span)
		start := time.Now()
		ps := span.StartChild("jobs.plan")
		plan, err := eng.Plan(sp)
		ps.End()
		if err == nil {
			rs := span.StartChild("jobs.run")
			_, err = eng.Run(withSpan(ctx, rs), plan, nil)
			rs.End()
		}
		took := time.Since(start)
		span.End()

		wall += took
		w.Sent++
		w.LatMS = append(w.LatMS, float64(took)/float64(time.Millisecond))
		var got []byte
		if err == nil {
			got, err = os.ReadFile(output)
		}
		switch {
		case err != nil:
			w.fail(fmt.Sprintf("job %d: %v", j, err))
		case !bytes.Equal(got, r.expected):
			w.fail(fmt.Sprintf("job %d: output differs from the direct path (%d bytes, want %d)", j, len(got), len(r.expected)))
		default:
			w.Succeeded++
			w.Units += jobRows
		}
		os.RemoveAll(dir)
	}
	w.WallS = wall.Seconds()
}
