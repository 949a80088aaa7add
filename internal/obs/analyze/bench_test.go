package analyze

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchRun(exps ...BenchExperiment) *BenchRun {
	return &BenchRun{SchemaVersion: 1, Experiments: exps}
}

func exp(id string, wall float64, metrics map[string]float64) BenchExperiment {
	return BenchExperiment{ID: id, WallSeconds: wall, Metrics: metrics}
}

func TestDiffIdenticalRuns(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5, "Jellyfish-7B": 80.1}))
	b := benchRun(exp("table2", 12, map[string]float64{"KnowTrans-7B": 85.5, "Jellyfish-7B": 80.1}))
	d := DiffBenchRuns(a, b, DiffOptions{Strict: true})
	if d.HasRegressions() {
		t.Fatalf("identical metrics flagged: %+v", d)
	}
	if d.Unchanged != 2 {
		t.Errorf("unchanged = %d, want 2", d.Unchanged)
	}
	// Wall time differs but is informational by default.
	if len(d.WallDeltas) != 1 || d.WallDeltas[0].Class != DeltaUnchanged {
		t.Errorf("wall deltas = %+v", d.WallDeltas)
	}
}

func TestDiffScoreRegression(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 80.0}))
	d := DiffBenchRuns(a, b, DiffOptions{})
	if !d.HasRegressions() || d.Regressions != 1 {
		t.Fatalf("score drop not flagged: %+v", d)
	}
	if d.Deltas[0].Class != DeltaRegressed || d.Deltas[0].Rel >= 0 {
		t.Errorf("delta = %+v", d.Deltas[0])
	}
}

func TestDiffImprovementAndStrict(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 80.0}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5}))
	if d := DiffBenchRuns(a, b, DiffOptions{}); d.HasRegressions() || d.Improved != 1 {
		t.Fatalf("improvement misclassified: %+v", d)
	}
	// Under -strict any change gates.
	if d := DiffBenchRuns(a, b, DiffOptions{Strict: true}); !d.HasRegressions() {
		t.Fatal("strict should flag improvements too")
	}
}

func TestDiffLowerIsBetter(t *testing.T) {
	a := benchRun(exp("table3", 10, map[string]float64{"Cost/query ($)": 0.004, "Latency (s)": 2.0}))
	b := benchRun(exp("table3", 10, map[string]float64{"Cost/query ($)": 0.002, "Latency (s)": 3.0}))
	d := DiffBenchRuns(a, b, DiffOptions{})
	byMetric := map[string]DeltaClass{}
	for _, md := range d.Deltas {
		byMetric[md.Metric] = md.Class
	}
	if byMetric["Cost/query ($)"] != DeltaImproved {
		t.Errorf("cost drop = %v, want improved", byMetric["Cost/query ($)"])
	}
	if byMetric["Latency (s)"] != DeltaRegressed {
		t.Errorf("latency rise = %v, want regressed", byMetric["Latency (s)"])
	}
}

func TestDiffRelTolMasksNoise(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.0}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 84.9}))
	if d := DiffBenchRuns(a, b, DiffOptions{RelTol: 0.01}); d.HasRegressions() {
		t.Fatalf("sub-tolerance change flagged: %+v", d)
	}
	if d := DiffBenchRuns(a, b, DiffOptions{RelTol: 0.0001}); !d.HasRegressions() {
		t.Fatal("super-tolerance change not flagged")
	}
}

func TestDiffStructuralChanges(t *testing.T) {
	a := benchRun(
		exp("table2", 10, map[string]float64{"KnowTrans-7B": 85, "Gone": 1}),
		exp("fig4", 5, map[string]float64{"KnowTrans-7B": 80}),
	)
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85, "New": 2}))
	d := DiffBenchRuns(a, b, DiffOptions{})
	// Disappearing metric and disappearing experiment both gate; the new
	// metric is informational without -strict.
	if d.Regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (missing metric + missing experiment): %+v", d.Regressions, d.Deltas)
	}
	ds := DiffBenchRuns(a, b, DiffOptions{Strict: true})
	if ds.Regressions != 3 {
		t.Fatalf("strict regressions = %d, want 3: %+v", ds.Regressions, ds.Deltas)
	}
}

func TestDiffWallTolGate(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"M": 1}))
	b := benchRun(exp("table2", 15, map[string]float64{"M": 1}))
	if d := DiffBenchRuns(a, b, DiffOptions{}); d.HasRegressions() {
		t.Fatal("wall time gated without WallTol")
	}
	if d := DiffBenchRuns(a, b, DiffOptions{WallTol: 0.2}); !d.HasRegressions() {
		t.Fatal("50% wall increase not gated at WallTol=0.2")
	}
}

func TestDiffRendering(t *testing.T) {
	a := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 85.5}))
	b := benchRun(exp("table2", 10, map[string]float64{"KnowTrans-7B": 80.0}))
	d := DiffBenchRuns(a, b, DiffOptions{})
	var buf bytes.Buffer
	if err := d.WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table2", "KnowTrans-7B", "regressed", "1 regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff text missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"class": "regressed"`) {
		t.Errorf("diff json missing class:\n%s", buf.String())
	}
}

func TestLoadBenchRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_run.json")
	doc := `{"schema_version":1,"experiments":[{"id":"table2","wall_seconds":1.5,"metrics":{"M":42}}],"total_wall_seconds":1.5}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := LoadBenchRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Experiments) != 1 || run.Experiments[0].Metrics["M"] != 42 {
		t.Fatalf("loaded run = %+v", run)
	}
	if _, err := LoadBenchRun(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

// TestLoadBenchRunServeDoc pins the report-document fallback (the shape of
// BENCH_allocs.json): the document loads as a synthetic one-experiment run
// whose metrics are the report's numeric leaves, and diffing two of them
// gates allocation regressions with lower-is-better direction.
func TestLoadBenchRunServeDoc(t *testing.T) {
	dir := t.TempDir()
	load := func(name, doc string) *BenchRun {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		run, err := LoadBenchRun(p)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	baseDoc := `{"schema_version":1,
		"report":{"time_ns":320000,"bytes_per_op":50000,"allocs_per_op":400,"note":"abc"}}`
	a := load("a.json", baseDoc)
	if len(a.Experiments) != 1 || a.SchemaVersion != 1 {
		t.Fatalf("report doc loaded as %+v", a)
	}
	m := a.Experiments[0].Metrics
	if len(m) != 3 || m["time_ns"] != 320000 || m["bytes_per_op"] != 50000 || m["allocs_per_op"] != 400 {
		t.Fatalf("flattened metrics = %v (the non-numeric leaf must be skipped)", m)
	}

	// Identical docs: clean under any tolerance.
	if d := DiffBenchRuns(a, load("b.json", baseDoc), DiffOptions{RelTol: 0.25}); d.HasRegressions() {
		t.Fatalf("self report-diff regressed: %+v", d.Deltas)
	}

	// Doctored candidate: bytes/op ballooned 10x, time within tolerance.
	w := load("w.json", `{"schema_version":1,
		"report":{"time_ns":330000,"bytes_per_op":500000,"allocs_per_op":400}}`)
	d := DiffBenchRuns(a, w, DiffOptions{RelTol: 0.25})
	if d.Regressions != 1 {
		t.Fatalf("regressions = %d, want exactly bytes_per_op: %+v", d.Regressions, d.Deltas)
	}
	for _, md := range d.Deltas {
		if (md.Class == DeltaRegressed) != (md.Metric == "bytes_per_op") {
			t.Errorf("%s classified %s", md.Metric, md.Class)
		}
	}
}
