package eval

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/internal/lora"
	"repro/internal/obs"
)

// FewShotN is the paper's labeled budget per novel dataset (Table I).
const FewShotN = 20

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(z *Zoo, reps int) *Table
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Statistics of downstream datasets (Table I)", runTable1},
		{"table2", "7B open-source DP-LLMs and non-LLM methods on 13 datasets (Table II)", runTable2},
		{"table3", "Token and cost analysis per instance (Table III)", runTable3},
		{"table4", "Closed-source LLMs vs KnowTrans-7B/8B/13B (Table IV)", runTable4},
		{"table5", "Ablation study: SKC and AKB components (Table V)", runTable5},
		{"table6", "Weight strategies: single / uniform / adaptive (Table VI)", runTable6},
		{"table7", "Statistics of upstream datasets (Table VII)", runTable7},
		{"fig4", "Scalability: score vs labeled instances (Fig. 4)", runFig4},
		{"fig5", "Backbones with KnowTrans on novel datasets (Fig. 5)", runFig5},
		{"fig6", "Backbones with KnowTrans on novel tasks (Fig. 6)", runFig6},
		{"fig7", "Refinement rounds: eval/test score per round (Fig. 7)", runFig7},
	}
}

// cellKey joins the components of a cell's seed-stream key with an explicit
// separator. Bare concatenation (the former b.Key()+name scheme) could
// alias distinct (dataset, method) pairs into one seed stream; the
// separator keeps keys collision-free as long as components contain no "|",
// which dataset keys and column names don't.
func cellKey(parts ...string) string { return strings.Join(parts, "|") }

// fewShotRNG derives the deterministic sampler for a (dataset, repetition)
// pair; every method sees the same few-shot sample within a repetition.
func fewShotRNG(z *Zoo, key string, rep int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", key, rep, z.Seed)
	return rand.New(rand.NewSource(int64(h.Sum64() & 0x7fffffffffffffff)))
}

func repSeed(z *Zoo, key string, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed|%s|%d|%d", key, rep, z.Seed)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// repCell builds the pool job for one table cell measured over reps
// repetitions: repetition r draws an n-row few-shot sample with
// fewShotRNG(z, key, r) and its seed with repSeed(z, key, r), measure adapts
// and scores on them and returns one value per column, and the job returns
// each column's mean, summed in repetition order. key is the cell's
// content-addressed seed-stream key (see cellKey) — derived from names, never
// from execution order, which is what makes the worker schedule irrelevant to
// the result.
func repCell(z *Zoo, b *datagen.Bundle, key string, reps, n int, measure func(*baselines.AdaptContext) []float64) cellJob[[]float64] {
	return cellJob[[]float64]{
		Label: key,
		Run: func(rec *obs.Recorder) []float64 {
			var sum []float64
			for rep := 0; rep < reps; rep++ {
				vals := measure(&baselines.AdaptContext{
					Bundle:  b,
					FewShot: b.DS.FewShot(fewShotRNG(z, key, rep), n),
					Seed:    repSeed(z, key, rep),
					Rec:     rec,
				})
				if sum == nil {
					sum = make([]float64, len(vals))
				}
				for i, v := range vals {
					sum[i] += v
				}
			}
			for i := range sum {
				sum[i] /= float64(reps)
			}
			return sum
		},
	}
}

// methodCell is the repCell of one method's score: the method is built once
// per cell, on the worker that runs it. obsName labels the per-method latency
// histogram eval.cell_us/<method> — the wall time of one repetition, adapt
// plus evaluate (usually the column name; Fig. 4 uses the method name across
// budget columns).
func methodCell(z *Zoo, b *datagen.Bundle, key, obsName string, reps, fewshotN int, build func() baselines.Method) cellJob[[]float64] {
	method := sync.OnceValue(build)
	return repCell(z, b, key, reps, fewshotN, func(ctx *baselines.AdaptContext) []float64 {
		m := method()
		start := ctx.Rec.Now()
		score := baselines.Evaluate(m.Adapt(ctx), b.Kind, b.DS.Test)
		ctx.Rec.ObserveSince("eval.cell_us/"+obsName, start)
		return []float64{score}
	})
}

// bundlesByKey resolves dataset keys to bundles, in order.
func bundlesByKey(z *Zoo, keys []string) []*datagen.Bundle {
	out := make([]*datagen.Bundle, len(keys))
	for i, k := range keys {
		out[i] = z.DownstreamByKey(k)
	}
	return out
}

// runGrid fills t with one row per bundle and one cell per column: each
// cell adapts and scores method(column) over reps repetitions at the
// paper's few-shot budget, on the zoo's worker pool. Rows keep bundle
// order; the result carries the per-task averages.
func runGrid(z *Zoo, t *Table, bundles []*datagen.Bundle, reps int, method func(col string) baselines.Method) *Table {
	jobs := make([]cellJob[[]float64], 0, len(bundles)*len(t.Columns))
	for _, b := range bundles {
		for _, col := range t.Columns {
			jobs = append(jobs, methodCell(z, b, cellKey(b.Key(), col), col, reps, FewShotN,
				func() baselines.Method { return method(col) }))
		}
	}
	scores := runCells(z, jobs)
	for _, b := range bundles {
		cells := make(map[string]float64, len(t.Columns))
		for _, col := range t.Columns {
			cells[col], scores = scores[0][0], scores[1:]
		}
		t.AddRow(string(b.Kind), b.DS.Name, cells)
	}
	return t.WithAverages()
}

// --- Table I / Table VII: dataset statistics ---------------------------------

func runTable1(z *Zoo, _ int) *Table {
	t := &Table{ID: "table1", Title: "Statistic of Datasets (paper sizes; generated at scale shown)",
		Columns: []string{"Training Set", "Few-shot", "Test Set", "Generated Train", "Generated Test"}}
	for _, b := range z.Downstream() {
		train, test, _ := datagen.PaperSizes(b.Key())
		t.AddRow(string(b.Kind), b.DS.Name, map[string]float64{
			"Training Set":    float64(train),
			"Few-shot":        FewShotN,
			"Test Set":        float64(test),
			"Generated Train": float64(len(b.DS.Train)),
			"Generated Test":  float64(len(b.DS.Test)),
		})
	}
	return t
}

func runTable7(z *Zoo, _ int) *Table {
	t := &Table{ID: "table7", Title: "Statistic of Upstream Datasets",
		Columns: []string{"#Samples", "#Positives", "Generated", "Generated Positives"}}
	for _, b := range z.UpstreamBundles() {
		samples, positives, _ := datagen.PaperUpstreamSize(b.Key())
		genPos := 0
		for _, in := range b.DS.Train {
			if in.GoldText() == "yes" {
				genPos++
			}
		}
		cells := map[string]float64{
			"#Samples":  float64(samples),
			"Generated": float64(len(b.DS.Train)),
		}
		if positives > 0 {
			cells["#Positives"] = float64(positives)
			cells["Generated Positives"] = float64(genPos)
		}
		t.AddRow(string(b.Kind), b.DS.Name, cells)
	}
	return t
}

// --- Table II: open-source DP-LLMs + non-LLM ---------------------------------

func runTable2(z *Zoo, reps int) *Table {
	methods := []string{
		MethodNonLLM, MethodMistral, MethodTableLLaMA, MethodMELD,
		MethodJellyfish, MethodJellyfishICL, MethodKnowTrans,
	}
	t := &Table{ID: "table2", Title: "Comparison of 7B open-source DP-LLMs and non-LLM methods (few-shot)", Columns: methods}
	return runGrid(z, t, z.Downstream(), reps, z.Method)
}

// --- Table IV: closed-source LLMs vs KnowTrans sizes --------------------------

func runTable4(z *Zoo, reps int) *Table {
	t := &Table{ID: "table4", Title: "Comparison with closed-source LLMs (few-shot)",
		Columns: []string{MethodGPT35, MethodGPT4, MethodGPT4o, "KnowTrans-7B", "KnowTrans-8B", "KnowTrans-13B"}}
	sizes := map[string]Size{"KnowTrans-7B": Size7B, "KnowTrans-8B": Size8B, "KnowTrans-13B": Size13B}
	return runGrid(z, t, z.Downstream(), reps, func(col string) baselines.Method {
		if size, ok := sizes[col]; ok {
			return z.KnowTransMethod(size, true, true, lora.StrategyAdaptive)
		}
		return z.Method(col)
	})
}

// --- Table V: ablation ---------------------------------------------------------

// table5Datasets are the seven datasets of the paper's ablation.
var table5Datasets = []string{
	"DI/Flipkart", "DI/Phone", "CTA/SOTAB", "AVE/AE-110k", "AVE/OA-mine", "DC/Rayyan", "DC/Beer",
}

func runTable5(z *Zoo, reps int) *Table {
	configs := map[string][2]bool{ // {useSKC, useAKB}
		"w/o SKC & AKB": {false, false},
		"w/o SKC":       {false, true},
		"w/o AKB":       {true, false},
		"KnowTrans":     {true, true},
	}
	t := &Table{ID: "table5", Title: "Ablation study of SKC and AKB (KnowTrans-7B)",
		Columns: []string{"w/o SKC & AKB", "w/o SKC", "w/o AKB", "KnowTrans"}}
	return runGrid(z, t, bundlesByKey(z, table5Datasets), reps, func(col string) baselines.Method {
		cfg := configs[col]
		return z.KnowTransMethod(Size7B, cfg[0], cfg[1], lora.StrategyAdaptive)
	})
}

// --- Table VI: weight strategies -----------------------------------------------

var table6Datasets = []string{"ED/Flights", "ED/Rayyan", "EM/Abt-Buy", "AVE/AE-110k"}

func runTable6(z *Zoo, reps int) *Table { return runTable6On(z, reps, table6Datasets) }

// runTable6On runs the weight-strategy comparison over the given dataset
// keys: the full Table VI list normally, a smaller grid in the
// serial-vs-parallel determinism test.
func runTable6On(z *Zoo, reps int, keys []string) *Table {
	t := &Table{ID: "table6", Title: "Weight strategies for upstream knowledge patches (KnowTrans-7B)",
		Columns: []string{"Single", "Uniform", "Adaptive", "KnowTrans"}}
	return runGrid(z, t, bundlesByKey(z, keys), reps, func(col string) baselines.Method {
		switch col {
		case "Single":
			// No upstream patches, no AKB: the bare shared-patch model.
			return z.KnowTransMethod(Size7B, true, false, lora.StrategySingle)
		case "Uniform":
			return z.KnowTransMethod(Size7B, true, false, lora.StrategyUniform)
		case "Adaptive":
			return z.KnowTransMethod(Size7B, true, false, lora.StrategyAdaptive)
		default: // KnowTrans = adaptive + AKB
			return z.KnowTransMethod(Size7B, true, true, lora.StrategyAdaptive)
		}
	})
}
