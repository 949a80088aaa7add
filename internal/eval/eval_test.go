package eval

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig4", "fig5", "fig6", "fig7"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := ExperimentByID("table2"); !ok {
		t.Fatal("ExperimentByID lookup failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("ExperimentByID should reject unknown ids")
	}
}

func TestFullRegistryIncludesAblations(t *testing.T) {
	full := FullRegistry()
	if len(full) != len(Registry())+2 {
		t.Fatalf("full registry has %d entries", len(full))
	}
	for _, id := range []string{"ablate-substrate", "ablate-oracle"} {
		e, ok := ExperimentByID(id)
		if !ok || e.Run == nil {
			t.Fatalf("missing ablation experiment %s", id)
		}
	}
	// The paper-only registry must not leak the ablations (experiment
	// `all` reproduces exactly the paper's artifact list).
	for _, e := range Registry() {
		if strings.HasPrefix(e.ID, "ablate-") {
			t.Fatalf("paper registry should not include reproduction ablation %s", e.ID)
		}
	}
	// No drill runs the ablations, so they run here, on the shared zoo: a
	// score in every cell of every ablation dataset.
	z := zooForTest()
	for _, id := range []string{"ablate-substrate", "ablate-oracle"} {
		e, _ := ExperimentByID(id)
		tb := e.Run(z, 1)
		for _, key := range ablationDatasets {
			task, name, _ := strings.Cut(key, "/")
			for _, col := range tb.Columns {
				if v, ok := tb.CellAt(task, name, col); !ok || v < 0 || v > 100 {
					t.Errorf("%s: %s %s = %v, %v; want a score in [0, 100]", id, key, col, v, ok)
				}
			}
		}
	}
}

// ablationDigest is the FNV-1a digest TestAblationDigest computes, recorded
// on the commit before the ablations' repetition loops became repCell
// (parent dc20e45).
const ablationDigest = "1f8acb7156e08c85"

// TestAblationDigest pins both ablation tables bit for bit: no drill and no
// paper table runs them, so this is what keeps their arithmetic from
// drifting. It digests every cell of ablate-substrate and ablate-oracle on
// the shared zoo at two repetitions — the averaging over repetitions
// included — in row and column order.
func TestAblationDigest(t *testing.T) {
	z := zooForTest()
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range []string{"ablate-substrate", "ablate-oracle"} {
		e, _ := ExperimentByID(id)
		tb := e.Run(z, 2)
		for _, r := range tb.Rows {
			fmt.Fprintf(h, "%s|%s|%s|", id, r.Task, r.Dataset)
			for _, col := range tb.Columns {
				v, ok := r.Cells[col]
				if !ok {
					t.Fatalf("%s: %s/%s has no %s cell", id, r.Task, r.Dataset, col)
				}
				bits := math.Float64bits(v)
				for i := range buf {
					buf[i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != ablationDigest {
		t.Fatalf("ablation digest %s, want %s", got, ablationDigest)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "t", Title: "demo", Columns: []string{"A", "B"}}
	tb.AddRow("ED", "Beer", map[string]float64{"A": 12.345, "B": 7})
	tb.AddRow("ED", "Rayyan", map[string]float64{"A": 50})
	out := tb.Render()
	for _, want := range []string{"t — demo", "Beer", "12.35", "7", "Rayyan", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableSmallValuesKeepPrecision(t *testing.T) {
	tb := &Table{ID: "t", Title: "cost", Columns: []string{"Price"}}
	tb.AddRow("", "KnowTrans", map[string]float64{"Price": 0.000391})
	if out := tb.Render(); !strings.Contains(out, "0.000391") {
		t.Fatalf("sub-cent value lost precision:\n%s", out)
	}
}

func TestTableWithAverages(t *testing.T) {
	tb := &Table{ID: "t", Title: "x", Columns: []string{"A"}}
	tb.AddRow("ED", "d1", map[string]float64{"A": 10})
	tb.AddRow("ED", "d2", map[string]float64{"A": 30})
	tb.AddRow("DI", "d3", map[string]float64{"A": 50})
	avg := tb.WithAverages()
	// Per-task average only for multi-dataset tasks, plus overall.
	var taskAvg, overall float64
	for _, r := range avg.Rows {
		if r.IsAverage && r.Task == "ED" {
			taskAvg = r.Cells["A"]
		}
		if r.IsAverage && r.Dataset == "Average (all)" {
			overall = r.Cells["A"]
		}
	}
	if taskAvg != 20 {
		t.Fatalf("ED average = %v, want 20", taskAvg)
	}
	if overall != 30 {
		t.Fatalf("overall average = %v, want 30 (mean of datasets, not tasks)", overall)
	}
	if v, ok := avg.CellAt("ED", "d2", "A"); !ok || v != 30 {
		t.Fatalf("CellAt lookup = %v/%v", v, ok)
	}
}

func TestZooDeterministicArtifacts(t *testing.T) {
	z1 := NewZoo(9, 0.05)
	z2 := NewZoo(9, 0.05)
	m1 := z1.Base(Size7B)
	m2 := z2.Base(Size7B)
	s1, s2 := m1.Export(), m2.Export()
	for name, w := range s1.Mats {
		for i := range w {
			if s2.Mats[name][i] != w[i] {
				t.Fatalf("base model differs across zoos with same seed at %s[%d]", name, i)
			}
		}
	}
	if s1.Trust != s2.Trust {
		t.Fatal("trust differs across zoos with same seed")
	}
}

func TestZooCachesArtifacts(t *testing.T) {
	z := NewZoo(10, 0.05)
	a := z.Base(Size7B)
	b := z.Base(Size7B)
	if a != b {
		t.Fatal("Base should be cached")
	}
	if len(z.Patches(Size7B)) != 12 {
		t.Fatalf("expected 12 upstream patches, got %d", len(z.Patches(Size7B)))
	}
	if len(z.Centroids(Size7B)) != 12 {
		t.Fatalf("expected 12 centroids")
	}
	// The key list is read without generating; it names what Downstream generates.
	var generated []string
	for _, b := range z.Downstream() {
		generated = append(generated, b.Key())
	}
	if keys := z.DownstreamKeys(); !slices.Equal(keys, generated) {
		t.Fatalf("DownstreamKeys = %v, Downstream generates %v", keys, generated)
	}
}

func TestZooRejectsBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scale 0")
		}
	}()
	NewZoo(1, 0)
}

func TestRebalanceCapsNegatives(t *testing.T) {
	z := NewZoo(11, 0.05)
	for _, b := range z.UpstreamBundles() {
		if !b.Kind.IsBinary() {
			continue
		}
		out := rebalance(b, 1)
		pos, neg := 0, 0
		for _, in := range out {
			if in.GoldText() == "yes" {
				pos++
			} else {
				neg++
			}
		}
		if pos > 0 && neg > 4*pos {
			t.Fatalf("%s: rebalance failed, %d neg vs %d pos", b.Key(), neg, pos)
		}
	}
}

func TestMethodRegistryConstructsAll(t *testing.T) {
	z := NewZoo(12, 0.05)
	for _, name := range []string{
		MethodNonLLM, MethodMistral, MethodTableLLaMA, MethodMELD,
		MethodJellyfish, MethodJellyfishICL, MethodKnowTrans,
		MethodGPT35, MethodGPT4, MethodGPT4o,
	} {
		m := z.Method(name)
		if m == nil {
			t.Fatalf("method %s not constructed", name)
		}
		// MELD/GPT names differ from the internal KnowTrans naming; just
		// require non-empty.
		if m.Name() == "" {
			t.Fatalf("method %s has empty name", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method must panic")
		}
	}()
	z.Method("bogus")
}

func TestFewShotRNGStability(t *testing.T) {
	z := NewZoo(13, 0.05)
	a := fewShotRNG(z, "k", 0).Int63()
	b := fewShotRNG(z, "k", 0).Int63()
	c := fewShotRNG(z, "k", 1).Int63()
	if a != b {
		t.Fatal("fewShotRNG must be deterministic")
	}
	if a == c {
		t.Fatal("different repetitions must differ")
	}
}
