// Package datagen synthesizes the 25 datasets of the paper's evaluation:
// the 12 upstream datasets of Table VII (used for upstream multi-task SFT
// and SKC knowledge-patch extraction) and the 13 novel downstream datasets
// of Table I. The originals are public benchmark datasets we cannot ship;
// each generator reproduces the schema, scale, class balance, and — most
// importantly — the latent dataset-informed rules the paper's Appendix
// (Table VIII) documents for each dataset, so the SKC and AKB components
// have real structure to transfer and discover. See DESIGN.md.
//
// All generation is deterministic in the seed.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/tasks"
)

// Bundle packages a generated dataset with its task kind and the seed
// knowledge its task prompt starts from (the "initial handcrafted knowledge"
// of Section VI-B).
type Bundle struct {
	DS       *data.Dataset
	Kind     tasks.Kind
	Seed     *tasks.Knowledge
	Upstream bool
}

// Key returns the task-qualified dataset name.
func (b *Bundle) Key() string { return b.DS.Key() }

// Spec returns the bundle's task spec.
func (b *Bundle) Spec() tasks.Spec { return tasks.SpecFor(b.Kind) }

// scaled applies the scale factor with a floor so tiny scales keep datasets
// usable.
func scaled(n int, scale float64) int {
	if scale >= 1 {
		return n
	}
	out := int(float64(n) * scale)
	if out < 40 {
		out = 40
	}
	if out > n {
		out = n
	}
	return out
}

// downstream is Table I in the paper's order: each dataset's key, its
// train/test sizes and its generator. Scale (0,1] shrinks the sizes
// proportionally so the full experiment suite stays runnable on a laptop;
// scale=1 reproduces the paper's row counts.
var downstream = []struct {
	key         string
	train, test int
	gen         func(rng *rand.Rand, train, test int) *Bundle
}{
	{"ED/Flights", 12256, 2000, genFlightsED},
	{"ED/Rayyan", 9000, 2000, genRayyanED},
	{"ED/Beer", 10050, 2000, genBeerED},
	{"DI/Flipkart", 11460, 2675, genFlipkartDI},
	{"DI/Phone", 2547, 1194, genPhoneDI},
	{"SM/CMS", 23068, 2564, genCMSSM},
	{"EM/Abt-Buy", 5743, 1916, genAbtBuyEM},
	{"EM/Walmart-Amazon", 6144, 2049, genWalmartAmazonEM},
	{"CTA/SOTAB", 356, 250, genSOTABCTA},
	{"AVE/AE-110k", 4405, 1495, genAE110kAVE},
	{"AVE/OA-mine", 7360, 2451, genOAMineAVE},
	{"DC/Rayyan", 9000, 2000, genRayyanDC},
	{"DC/Beer", 10050, 2000, genBeerDC},
}

// upstream is Table VII in the paper's order: each dataset's key, its
// #Samples and #Positives, and its generator, which is handed the row's
// positive rate (positives/samples).
var upstream = []struct {
	key                string
	samples, positives int
	gen                func(rng *rand.Rand, train, test int, posRate float64) *Bundle
}{
	{"ED/Adult", 1100, 70, genAdultED},
	{"ED/Hospital", 3420, 88, genHospitalED},
	{"DI/Buy", 586, 0, genBuyDI},
	{"DI/Restaurant", 778, 0, genRestaurantDI},
	{"SM/MIMIC", 7000, 11, genMIMICSM},
	{"SM/Synthea", 5000, 18, genSyntheaSM},
	{"EM/Amazon-Google", 6874, 699, genAmazonGoogleEM},
	{"EM/Beer", 359, 54, genBeerEM},
	{"EM/DBLP-ACM", 5000, 885, genDBLPACMEM},
	{"EM/DBLP-GoogleScholar", 5000, 924, genDBLPScholarEM},
	{"EM/Fodors-Zagats", 757, 88, genFodorsZagatsEM},
	{"EM/iTunes-Amazon", 430, 105, genITunesAmazonEM},
}

// Downstream generates the 13 novel datasets of Table I at the given scale.
func Downstream(seed int64, scale float64) []*Bundle {
	return byKeys(DownstreamKeys(), seed, scale)
}

// Upstream generates the 12 upstream datasets of Table VII at the given
// scale. Upstream bundles carry only Train (they are a training resource);
// a small Test split is still produced for diagnostics.
func Upstream(seed int64, scale float64) []*Bundle {
	return byKeys(UpstreamKeys(), seed, scale)
}

func byKeys(keys []string, seed int64, scale float64) []*Bundle {
	out := make([]*Bundle, len(keys))
	for i, key := range keys {
		out[i] = ByKey(key, seed, scale)
	}
	return out
}

// ByKey generates a single dataset (upstream or downstream) by its
// task-qualified key at the given scale. The i-th row of a table draws from
// its own seed, so a dataset is the same whether generated alone or with its
// table.
func ByKey(key string, seed int64, scale float64) *Bundle {
	for i, row := range downstream {
		if row.key == key {
			rng := rand.New(rand.NewSource(seed + int64(i)*1009))
			return row.gen(rng, scaled(row.train, scale), scaled(row.test, scale))
		}
	}
	for i, row := range upstream {
		if row.key == key {
			rng := rand.New(rand.NewSource(seed + 7777 + int64(i)*1013))
			n := scaled(row.samples, scale)
			b := row.gen(rng, n, n/10+10, float64(row.positives)/float64(row.samples))
			b.Upstream = true
			return b
		}
	}
	panic(fmt.Sprintf("datagen: unknown dataset %q", key))
}

// DownstreamKeys returns the Table I dataset keys in order.
func DownstreamKeys() []string {
	keys := make([]string, len(downstream))
	for i, row := range downstream {
		keys[i] = row.key
	}
	return keys
}

// UpstreamKeys returns the Table VII dataset keys in order.
func UpstreamKeys() []string {
	keys := make([]string, len(upstream))
	for i, row := range upstream {
		keys[i] = row.key
	}
	return keys
}

// PaperSizes returns the unscaled Table I sizes for a downstream key.
func PaperSizes(key string) (train, test int, ok bool) {
	for _, row := range downstream {
		if row.key == key {
			return row.train, row.test, true
		}
	}
	return 0, 0, false
}

// PaperUpstreamSize returns the unscaled Table VII row for an upstream key.
func PaperUpstreamSize(key string) (samples, positives int, ok bool) {
	for _, row := range upstream {
		if row.key == key {
			return row.samples, row.positives, true
		}
	}
	return 0, 0, false
}
