// Command benchmark is the repository's one committed benchmark: five
// workloads driven through the system's public functions and HTTP surface,
// every answer checked against the direct core.Adapted.PredictBatch path,
// seven end-to-end metrics per workload with tracing off, and a traced run
// that times each layer from outside. README.md says what each number
// means and which other number it should move.
//
//	bash benchmark/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -repeat 5            # five whole sets, with spreads
//	bash benchmark/run.sh -agree A.json B.json # do two sets agree within bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output: exactly these keys.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// percentileNote records what stands behind a reported percentile.
type percentileNote struct {
	Percentile int `json:"percentile"`
	Samples    int `json:"samples"`
	Beyond     int `json:"beyond"`
}

// resultDoc is the full record of one run, written to out/.
type resultDoc struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Trace      bool    `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	ZooSeed    int64   `json:"zoo_seed"`
	ZooScale   float64 `json:"zoo_scale"`
	ZooSize    string  `json:"zoo_size"`
	Clients    int     `json:"clients"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`

	Phases      []*window                 `json:"phases"`
	Percentiles map[string]percentileNote `json:"percentiles,omitempty"`
	Attempted   int                       `json:"attempted"`
	Failed      int                       `json:"failed"`
	FailedShare float64                   `json:"failed_share"`
	Transfers   int64                     `json:"transfers"` // Registry.Snapshot, over the untraced window
	Metrics     map[string]metricValue    `json:"metrics"`
	Spans       int                       `json:"spans,omitempty"`
	TraceFile   string                    `json:"trace_file,omitempty"`
	Correct     bool                      `json:"correct"`
	Problems    []string                  `json:"problems,omitempty"`
}

func (d *resultDoc) problem(format string, args ...any) {
	d.Problems = append(d.Problems, fmt.Sprintf(format, args...))
}

func vcsRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: adapt_cold, serve_warm, serve_mixed, route_warm or job_bulk (with -repeat: empty runs all five)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (key sequence, row per request, job row order); the artefacts are fixed")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, spans flushed to out/trace-<workload>.jsonl")
	repeat := fs.Int("repeat", 0, "run this many whole sets (seeds seed, seed+1, ...) and print per-metric median, quartiles and relative range")
	agree := fs.Bool("agree", false, "compare two set files (arguments A.json B.json): exit 1 when an end-to-end metric differs by more than its BENCHMARK.json bound")
	out := fs.String("out", "", "with -repeat: where to write the set file (default out/set-seed<seed>-x<repeat>.json)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *agree:
		return runAgree(fs.Args())
	case *repeat > 0:
		return runRepeat(*workload, *seed, *seconds, *trace, *repeat, *out, outDir)
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; the workloads are:\n", *workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", w.Name, w.Why)
		}
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	doc, err := runWorkload(spec, *seed, *seconds, *trace, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := report(doc, outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !doc.Correct {
		return 1
	}
	return 0
}

// normalizeArgs lets -trace be given bare (a switch) or with a separate
// 0/1 value, as the benchmark driver passes it: "--trace 1" → "-trace=1".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runWorkload is one process's work: set up, measure, check.
func runWorkload(spec workloadSpec, seed int64, seconds float64, trace bool, outDir string) (*resultDoc, error) {
	doc := &resultDoc{
		Workload: spec.Name, Why: spec.Why, Trace: trace, Seed: seed, Seconds: seconds,
		ZooSeed: zooSeed, ZooScale: zooScale, ZooSize: string(zooSize), Clients: spec.Clients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: vcsRevision(),
		Metrics: map[string]metricValue{},
	}
	e, err := newEnv(keysOf(spec.Name))
	if err != nil {
		return nil, err
	}
	window := time.Duration(seconds * float64(time.Second))
	minOps := spec.MinOps
	if trace {
		// The traced process measures both halves itself: tracing overhead
		// is the difference between two runs of one process.
		window /= 2
		minOps = 0
	}

	// The untraced run: the program's own objects, no decorator anywhere.
	r, warmup, err := newRig(spec, e, nil, seed, outDir)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(processStart).Seconds()
	before := r.transfers()
	plain := r.run("untraced", window, minOps)
	doc.Transfers = r.transfers() - before
	r.close()
	doc.addPhases(warmup, plain)
	doc.checkTransfers(spec, plain, doc.Transfers)

	if !trace {
		doc.endToEnd(spec, setupS, plain)
	} else if err := doc.traced(spec, e, seed, window, plain, outDir); err != nil {
		return nil, err
	}

	if doc.Attempted > 0 {
		doc.FailedShare = float64(doc.Failed) / float64(doc.Attempted)
	}
	doc.Correct = len(doc.Problems) == 0 && doc.Attempted > 0
	return doc, nil
}

// addPhases records windows; the measured ones (not the warm-ups, whose
// failures abort set-up instead) count towards attempted and failed.
func (d *resultDoc) addPhases(warmup, measured *window) {
	if warmup != nil {
		d.Phases = append(d.Phases, warmup)
	}
	d.Phases = append(d.Phases, measured)
	d.Attempted += measured.Sent
	d.Failed += measured.Failed
	if measured.Failed > 0 {
		d.problem("%s: %d of %d ops failed; first: %s", measured.Name, measured.Failed, measured.Sent, measured.FirstErr)
	}
}

// checkTransfers is adapt_cold's gate: every op must have been a miss, and
// every miss exactly one Transfer.
func (d *resultDoc) checkTransfers(spec workloadSpec, w *window, transfers int64) {
	if spec.Name == "adapt_cold" && transfers != int64(w.Sent) {
		d.problem("%s: %d Transfers for %d ops: every op of adapt_cold must be exactly one miss", w.Name, transfers, w.Sent)
	}
}

func (d *resultDoc) set(name string, v float64) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				d.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

// endToEnd fills the seven end-to-end metrics from the untraced window.
func (d *resultDoc) endToEnd(spec workloadSpec, setupS float64, w *window) {
	lat := sortedCopy(w.LatMS)
	p50, beyond50 := percentile(lat, 50)
	tail, beyond := percentile(lat, spec.TailPct)
	d.Percentiles = map[string]percentileNote{
		"op_p50_ms":  {50, len(lat), beyond50},
		"op_tail_ms": {spec.TailPct, len(lat), beyond},
	}
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "benchmark: note: only %d of %d samples lie beyond p%d; a window this short would report p%d\n",
			beyond, len(lat), spec.TailPct, tailPercentile(len(lat)))
	}
	d.set("setup_s", setupS)
	d.set("op_p50_ms", p50)
	d.set("op_tail_ms", tail)
	d.set("ops_per_s", float64(w.Units)/w.WallS)
	d.set("ok_share", float64(w.Succeeded)/float64(max(w.Sent, 1)))
	d.set("alloc_kb_per_op", float64(w.AllocB)/1024/float64(max(w.Sent, 1)))
	d.set("heap_live_mb", float64(w.HeapLiveB)/(1<<20))
}

// traced runs the second half of a traced process: the same workload on a
// rig with every decorator installed, then the direct layer timings, then
// the span tree's analysis.
func (d *resultDoc) traced(spec workloadSpec, e *env, seed int64, window time.Duration, plain *window, outDir string) error {
	tr := newTracing()
	for _, bad := range tr.verifyReplay(e) {
		d.problem("%s", bad)
	}

	r, warmup, err := newRig(spec, e, tr, seed, outDir)
	if err != nil {
		return err
	}
	var hedges, failovers, routed int64
	if r.router != nil {
		st := r.router.Stats()
		hedges, failovers, routed = st.Hedges, st.Failovers, st.Requests
	}
	before := r.transfers()
	w := r.run("traced", window, 0)
	transfers := r.transfers() - before
	if r.router != nil {
		st := r.router.Stats()
		hedges, failovers, routed = st.Hedges-hedges, st.Failovers-failovers, st.Requests-routed
	}
	r.close()
	if warmup != nil {
		warmup.Name = "warmup-traced"
	}
	d.addPhases(warmup, w)
	d.checkTransfers(spec, w, transfers)

	layers, err := layerMetrics(e, seed, outDir)
	if err != nil {
		return err
	}
	path, err := tr.flush(outDir, spec.Name)
	if err != nil {
		return err
	}
	d.TraceFile = path
	rep, err := analyzeTrace(bytes.NewReader(tr.buf.Bytes()))
	if err != nil {
		return err
	}
	d.Spans = rep.Spans

	d.set("eval.base_s", e.baseS)
	d.set("eval.upstream_s", e.upstreamS)
	d.set("eval.patches_s", e.patchesS)
	for name, v := range layers {
		d.set(name, v)
	}
	d.set("skc.fuse_ms", rep.perTransferMS("skc.fuse"))
	d.set("skc.fewshot_ft_ms", rep.perTransferMS("skc.fewshot_ft"))
	d.set("akb.search_ms", rep.perTransferMS("akb.search"))
	d.set("akb.eval_busy_ms", rep.perTransferMS("akb.eval"))
	d.set("oracle.busy_ms", rep.perTransferMS("oracle.call"))
	d.set("core.transfer_ms", rep.meanMS("core.transfer"))
	d.set("serve.transfers", float64(transfers))
	d.set("serve.cold_share", ratio(float64(w.Cold), float64(w.Sent)))
	batches := float64(tr.batches.Load())
	busyUS := float64(tr.busyNs.Load()) / 1e3
	d.set("serve.adapter_busy_us", ratio(busyUS, batches))
	d.set("serve.batch_size_mean", ratio(float64(tr.rows.Load()), batches))
	d.set("serve.adapter_busy_share", ratio(busyUS/1e6, w.WallS))
	d.set("cluster.backend_rtt_us", rep.meanMS("cluster.attempt")*1e3)
	d.set("cluster.hedge_rate", ratio(float64(hedges), float64(routed)))
	d.set("cluster.failovers", float64(failovers))
	d.set("jobs.plan_ms", rep.meanMS("jobs.plan"))
	d.set("jobs.run_ms", rep.meanMS("jobs.run"))
	for name, v := range rep.Derived {
		d.set(name, v)
	}
	// How close the engine gets to the direct path on the same rows: job
	// rows/s over PredictBatch rows/s at batch 8.
	efficiency := 0.0
	if spec.Name == "job_bulk" {
		efficiency = ratio(float64(plain.Units), plain.WallS) / ratio(1e6, layers["core.predict_b8_us"])
	}
	d.set("jobs.engine_efficiency", efficiency)
	// Both windows are closed loops of the same clients, so the cost of
	// tracing is the growth of the wall time per unit of work.
	d.set("bench.trace_overhead_share", ratio(ratio(w.WallS, float64(w.Units)), ratio(plain.WallS, float64(plain.Units)))-1)
	d.set("bench.coverage_share", rep.Coverage)
	return nil
}

// report prints every metric by name with its unit, writes the result
// document, and ends with the driver's line.
func report(d *resultDoc, outDir string) error {
	list := endToEnd
	kind := "end-to-end, tracing off"
	if d.Trace {
		list, kind = perLayer, "per layer, traced run"
	}
	fmt.Printf("workload %s seed %d (%s)\n", d.Workload, d.Seed, kind)
	fmt.Printf("  zoo seed %d scale %g size %s; %d clients; nproc %d GOMAXPROCS %d; %s; revision %s\n",
		d.ZooSeed, d.ZooScale, d.ZooSize, d.Clients, d.NProc, d.GOMAXPROCS, d.GoVersion, d.Revision)
	for _, w := range d.Phases {
		fmt.Printf("  phase %-14s sent %6d  succeeded %6d  failed %d  cold %d  wall %.3f s\n", w.Name, w.Sent, w.Succeeded, w.Failed, w.Cold, w.WallS)
	}
	line := driverLine{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := d.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = v
		note := ""
		if p, ok := d.Percentiles[m.Name]; ok {
			note = fmt.Sprintf("  (p%d of %d samples, %d beyond)", p.Percentile, p.Samples, p.Beyond)
		}
		fmt.Printf("  %-28s %14.4f %s%s\n", m.Name, v.Value, v.Unit, note)
	}
	fmt.Printf("  %-28s %14.6f ratio  (%d failed of %d attempted)\n", "failed_share", d.FailedShare, line.Failed, line.Attempted)
	if d.Trace {
		fmt.Printf("  %d spans in %s\n", d.Spans, d.TraceFile)
	}
	for _, p := range d.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}

	name := "result-" + d.Workload
	if d.Trace {
		name += "-trace"
	}
	path := filepath.Join(outDir, name+".json")
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  result document: %s\n", path)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
