package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The benchmark's registry: every workload and metric the harness can
// print. BENCHMARK.json at the repository root lists the same names; a test
// pins the two against each other, because later issues cite these names
// verbatim.

// workloadSpec fixes the shape of one workload.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Clients is the closed-loop client count: callers of this system
	// (pipelines, the job engine, the router) each wait for a reply.
	Clients int `json:"-"`
	// TailPct is the percentile op_tail_ms reports. It is fixed per workload
	// so the metric means the same thing on every run, keeps at least ten
	// samples beyond it at the sample count a default-length run produces on
	// two cores, and is no higher than repeats: the p99 of serve_warm spread
	// by 14% between ten runs of one commit, its p95 does not.
	TailPct int `json:"-"`
	// MinOps keeps the untraced window open past -seconds until this many
	// ops ran, on the workloads whose ops take a quarter of a second: the
	// count at which TailPct has its ten samples beyond it.
	MinOps int `json:"-"`
}

var workloads = []workloadSpec{
	{
		Name:    "adapt_cold",
		Why:     "Every request misses: round-robin over 13 keys on a 4-slot registry, so each op is one few-shot Transfer (SKC then AKB) plus an eviction.",
		Clients: 1,
		TailPct: 80,
		MinOps:  52, // four rounds over the 13 keys
	},
	{
		Name:    "serve_warm",
		Why:     "Steady-state predicts over 4 resident adapters; batches hold 1-2 rows, so batcher linger and HTTP dominate and the model does little.",
		Clients: 2,
		TailPct: 95,
	},
	{
		Name:    "serve_mixed",
		Why:     "95% warm predicts on 6 hot keys beside 5% on 7 churning cold keys: reads compete for CPU with concurrent Transfers and evictions.",
		Clients: 2,
		TailPct: 90,
	},
	{
		Name:    "route_warm",
		Why:     "The serve_warm traffic through cluster.Router over two backends; the difference from serve_warm is the price of the routing hop.",
		Clients: 2,
		TailPct: 95,
	},
	{
		Name:    "job_bulk",
		Why:     "Sequential 2000-row jobs keep 16 rows in flight, so batches fill to 8 and the forward pass, prompt building and checkpoint fsync dominate.",
		Clients: 1,
		TailPct: 75,
		MinOps:  44,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are reported on every workload with tracing off. failed_share
// travels beside them (printed, in the result document, and as
// failed/attempted on the driver line) rather than among them: it is 0 on
// every healthy run, and a bound that is a share of a zero median bounds
// nothing. ok_share = 1 - failed_share is its never-zero complement.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"heap_live_mb", "MiB", "lower", 0.05},
}

// perLayer come from the traced run. The prefix is the module the number
// belongs to; README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	// set-up / training
	{"eval.base_s", "s", "lower", 0},
	{"eval.upstream_s", "s", "lower", 0},
	{"eval.patches_s", "s", "lower", 0},
	{"model.train_examples_per_s", "1/s", "higher", 0},
	// adapt path
	{"skc.fuse_ms", "ms", "lower", 0},
	{"skc.fewshot_ft_ms", "ms", "lower", 0},
	{"akb.search_ms", "ms", "lower", 0},
	{"akb.eval_busy_ms", "ms", "lower", 0},
	{"akb.eval_rows", "rows/transfer", "lower", 0},
	{"oracle.calls", "calls/transfer", "lower", 0},
	{"oracle.busy_ms", "ms", "lower", 0},
	{"core.transfer_ms", "ms", "lower", 0},
	{"serve.miss_overhead_ms", "ms", "lower", 0},
	{"serve.transfers", "count", "lower", 0},
	{"serve.cold_share", "ratio", "lower", 0},
	// predict path
	{"tasks.build_example_us", "us", "lower", 0},
	{"text.encode_us", "us", "lower", 0},
	{"model.scores_b1_us", "us", "lower", 0},
	{"model.scores_b8_us", "us", "lower", 0},
	{"nn.dense_b8_us", "us", "lower", 0},
	{"tensor.matmul_nt_us", "us", "lower", 0},
	{"tensor.matmul_nt_flops", "flop", "lower", 0},
	{"core.predict_b1_us", "us", "lower", 0},
	{"core.predict_b8_us", "us", "lower", 0},
	// serve
	{"serve.adapter_busy_us", "us", "lower", 0},
	{"serve.batch_size_mean", "rows", "higher", 0},
	{"serve.adapter_busy_share", "ratio", "lower", 0},
	{"serve.batcher_wait_us", "us", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},
	// cluster
	{"cluster.backend_rtt_us", "us", "lower", 0},
	{"cluster.route_overhead_us", "us", "lower", 0},
	{"cluster.attempts_per_op", "ratio", "lower", 0},
	{"cluster.hedge_rate", "ratio", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	// jobs / dataio
	{"jobs.plan_ms", "ms", "lower", 0},
	{"jobs.run_ms", "ms", "lower", 0},
	{"dataio.decode_json_ms", "ms", "lower", 0},
	{"jobs.checkpoint_append_us", "us", "lower", 0},
	{"jobs.engine_efficiency", "ratio", "higher", 0},
	// harness
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.coverage_share", "ratio", "higher", 0},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory when the harness is started from the repository root (run.sh
// does), its parent when started inside benchmark/ (`go run .`, `go test`).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
