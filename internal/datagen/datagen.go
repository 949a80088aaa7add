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

// Sizes of the downstream datasets (Table I). Scale (0,1] shrinks them
// proportionally so the full experiment suite stays runnable on a laptop;
// scale=1 reproduces the paper's row counts.
type sizeSpec struct{ train, test int }

var downstreamSizes = map[string]sizeSpec{
	"ED/Flights":        {12256, 2000},
	"ED/Rayyan":         {9000, 2000},
	"ED/Beer":           {10050, 2000},
	"DI/Flipkart":       {11460, 2675},
	"DI/Phone":          {2547, 1194},
	"SM/CMS":            {23068, 2564},
	"EM/Abt-Buy":        {5743, 1916},
	"EM/Walmart-Amazon": {6144, 2049},
	"CTA/SOTAB":         {356, 250},
	"AVE/AE-110k":       {4405, 1495},
	"AVE/OA-mine":       {7360, 2451},
	"DC/Rayyan":         {9000, 2000},
	"DC/Beer":           {10050, 2000},
}

// Upstream dataset sizes (Table VII; #Samples with #Positives).
var upstreamSizes = map[string]struct{ samples, positives int }{
	"ED/Adult":              {1100, 70},
	"ED/Hospital":           {3420, 88},
	"DI/Buy":                {586, 0},
	"DI/Restaurant":         {778, 0},
	"SM/MIMIC":              {7000, 11},
	"SM/Synthea":            {5000, 18},
	"EM/Amazon-Google":      {6874, 699},
	"EM/Beer":               {359, 54},
	"EM/DBLP-ACM":           {5000, 885},
	"EM/DBLP-GoogleScholar": {5000, 924},
	"EM/Fodors-Zagats":      {757, 88},
	"EM/iTunes-Amazon":      {430, 105},
}

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

// Generator builds one dataset at the given sizes.
type Generator func(rng *rand.Rand, train, test int) *Bundle

// downstreamGenerators maps dataset keys to constructors, in the paper's
// Table I order.
var downstreamOrder = []string{
	"ED/Flights", "ED/Rayyan", "ED/Beer",
	"DI/Flipkart", "DI/Phone",
	"SM/CMS",
	"EM/Abt-Buy", "EM/Walmart-Amazon",
	"CTA/SOTAB",
	"AVE/AE-110k", "AVE/OA-mine",
	"DC/Rayyan", "DC/Beer",
}

var upstreamOrder = []string{
	"ED/Adult", "ED/Hospital",
	"DI/Buy", "DI/Restaurant",
	"SM/MIMIC", "SM/Synthea",
	"EM/Amazon-Google", "EM/Beer", "EM/DBLP-ACM",
	"EM/DBLP-GoogleScholar", "EM/Fodors-Zagats", "EM/iTunes-Amazon",
}

func downstreamGenerator(key string) Generator {
	switch key {
	case "ED/Flights":
		return genFlightsED
	case "ED/Rayyan":
		return genRayyanED
	case "ED/Beer":
		return genBeerED
	case "DI/Flipkart":
		return genFlipkartDI
	case "DI/Phone":
		return genPhoneDI
	case "SM/CMS":
		return genCMSSM
	case "EM/Abt-Buy":
		return genAbtBuyEM
	case "EM/Walmart-Amazon":
		return genWalmartAmazonEM
	case "CTA/SOTAB":
		return genSOTABCTA
	case "AVE/AE-110k":
		return genAE110kAVE
	case "AVE/OA-mine":
		return genOAMineAVE
	case "DC/Rayyan":
		return genRayyanDC
	case "DC/Beer":
		return genBeerDC
	default:
		panic(fmt.Sprintf("datagen: unknown downstream dataset %q", key))
	}
}

func upstreamGenerator(key string) Generator {
	switch key {
	case "ED/Adult":
		return genAdultED
	case "ED/Hospital":
		return genHospitalED
	case "DI/Buy":
		return genBuyDI
	case "DI/Restaurant":
		return genRestaurantDI
	case "SM/MIMIC":
		return genMIMICSM
	case "SM/Synthea":
		return genSyntheaSM
	case "EM/Amazon-Google":
		return genAmazonGoogleEM
	case "EM/Beer":
		return genBeerEM
	case "EM/DBLP-ACM":
		return genDBLPACMEM
	case "EM/DBLP-GoogleScholar":
		return genDBLPScholarEM
	case "EM/Fodors-Zagats":
		return genFodorsZagatsEM
	case "EM/iTunes-Amazon":
		return genITunesAmazonEM
	default:
		panic(fmt.Sprintf("datagen: unknown upstream dataset %q", key))
	}
}

// Downstream generates the 13 novel datasets of Table I at the given scale.
func Downstream(seed int64, scale float64) []*Bundle {
	return byKeys(downstreamOrder, seed, scale)
}

// Upstream generates the 12 upstream datasets of Table VII at the given
// scale. Upstream bundles carry only Train (they are a training resource);
// a small Test split is still produced for diagnostics.
func Upstream(seed int64, scale float64) []*Bundle {
	return byKeys(upstreamOrder, seed, scale)
}

func byKeys(keys []string, seed int64, scale float64) []*Bundle {
	out := make([]*Bundle, len(keys))
	for i, key := range keys {
		out[i] = ByKey(key, seed, scale)
	}
	return out
}

// ByKey generates a single dataset (upstream or downstream) by its
// task-qualified key at the given scale. The i-th key of a table draws from
// its own seed, so a dataset is the same whether generated alone or with its
// table.
func ByKey(key string, seed int64, scale float64) *Bundle {
	for i, k := range downstreamOrder {
		if k == key {
			sz := downstreamSizes[key]
			rng := rand.New(rand.NewSource(seed + int64(i)*1009))
			return downstreamGenerator(key)(rng, scaled(sz.train, scale), scaled(sz.test, scale))
		}
	}
	for i, k := range upstreamOrder {
		if k == key {
			rng := rand.New(rand.NewSource(seed + 7777 + int64(i)*1013))
			n := scaled(upstreamSizes[key].samples, scale)
			b := upstreamGenerator(key)(rng, n, n/10+10)
			b.Upstream = true
			return b
		}
	}
	panic(fmt.Sprintf("datagen: unknown dataset %q", key))
}

// DownstreamKeys returns the Table I dataset keys in order.
func DownstreamKeys() []string { return append([]string(nil), downstreamOrder...) }

// UpstreamKeys returns the Table VII dataset keys in order.
func UpstreamKeys() []string { return append([]string(nil), upstreamOrder...) }

// PaperSizes returns the unscaled Table I sizes for a downstream key.
func PaperSizes(key string) (train, test int, ok bool) {
	sz, ok := downstreamSizes[key]
	return sz.train, sz.test, ok
}

// PaperUpstreamSize returns the unscaled Table VII row for an upstream key.
func PaperUpstreamSize(key string) (samples, positives int, ok bool) {
	sz, ok := upstreamSizes[key]
	return sz.samples, sz.positives, ok
}
