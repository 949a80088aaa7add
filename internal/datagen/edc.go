package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/data"
	"repro/internal/tasks"
)

// record is a clean row plus a chosen target attribute; error injectors
// corrupt the target and remember the clean value.
type record struct {
	fields []data.Field
}

func (r record) value(attr string) string {
	for _, f := range r.fields {
		if f.Name == attr {
			return f.Value
		}
	}
	return ""
}

func (r record) withValue(attr, v string) record {
	out := record{fields: append([]data.Field(nil), r.fields...)}
	for i := range out.fields {
		if out.fields[i].Name == attr {
			out.fields[i].Value = v
		}
	}
	return out
}

// corruption is one injected error: the corrupted value and the latent error
// type (recorded in Meta for diagnostics; never shown to models).
type corruption struct {
	value string
	kind  string
}

// edInstanceFrom builds an ED instance: gold "yes" iff the target value was
// corrupted.
func edInstanceFrom(id string, r record, target string, corrupted bool, kind string) *data.Instance {
	gold := 1
	if corrupted {
		gold = 0
	}
	return &data.Instance{
		ID:         id,
		Fields:     r.fields,
		Target:     target,
		Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
		Gold:       gold,
		Meta:       map[string]string{"error_type": kind},
	}
}

// edDataset drives an ED generator: cleanGen produces a record and a target
// attribute; corrupt injects an error into the target.
func edDataset(rng *rand.Rand, name string, train, test int, posRate float64,
	cleanGen func(rng *rand.Rand) (record, string),
	corrupt func(rng *rand.Rand, r record, target string) corruption) *data.Dataset {
	ds := &data.Dataset{Name: name, Task: string(tasks.ED)}
	for i := 0; i < train+test; i++ {
		r, target := cleanGen(rng)
		id := fmt.Sprintf("%s-ed-%d", name, i)
		var in *data.Instance
		if maybe(rng, posRate) {
			c := corrupt(rng, r, target)
			in = edInstanceFrom(id, r.withValue(target, c.value), target, true, c.kind)
		} else {
			in = edInstanceFrom(id, r, target, false, "clean")
		}
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return ds
}

// --- Beer (downstream ED + DC) ---------------------------------------------

func cleanBeer(rng *rand.Rand) (record, string) {
	city := pick(rng, cities)
	// Benign variation planted per Table VIII: abbreviations are acceptable,
	// so clean records sometimes carry them and they must NOT be errors.
	if maybe(rng, 0.12) {
		city = abbreviate(city)
	}
	r := record{fields: []data.Field{
		{Name: "beer_name", Value: pick(rng, beerNameParts1) + " " + pick(rng, beerNameParts2)},
		{Name: "brewery_name", Value: pick(rng, breweries)},
		{Name: "style", Value: pick(rng, beerStyles)},
		{Name: "abv", Value: fmt.Sprintf("%.3f", 0.02+rng.Float64()*0.1)},
		{Name: "ibu", Value: fmt.Sprintf("%d", 5+rng.Intn(95))},
		{Name: "city", Value: city},
		{Name: "state", Value: pick(rng, states)},
		{Name: "ounces", Value: pick(rng, []string{"12", "16", "19.2", "32"})},
	}}
	targets := []string{"abv", "ibu", "city", "style", "beer_name"}
	return r, pick(rng, targets)
}

func corruptBeer(rng *rand.Rand, r record, target string) corruption {
	v := r.value(target)
	switch target {
	case "abv":
		if maybe(rng, 0.6) {
			return corruption{v + "%", "abv-percent"} // the no-percent rule
		}
		return corruption{fmt.Sprintf("%.1f", 2+rng.Float64()*60), "abv-range"}
	case "ibu":
		if maybe(rng, 0.7) {
			return corruption{"nan", "missing"}
		}
		return corruption{"-" + v, "ibu-negative"}
	case "city":
		return corruption{typo(rng, v), "city-typo"}
	case "style":
		if maybe(rng, 0.5) {
			return corruption{typo(rng, v), "style-typo"}
		}
		return corruption{"nan", "missing"}
	default: // beer_name
		return corruption{typo(rng, v), "name-typo"}
	}
}

func genBeerED(rng *rand.Rand, train, test int) *Bundle {
	ds := edDataset(rng, "Beer", train, test, 0.28, cleanBeer, corruptBeer)
	return &Bundle{DS: ds, Kind: tasks.ED, Seed: &tasks.Knowledge{
		Text: "Errors may include spelling errors, missing values, or values that don't make sense in context.",
	}}
}

// --- Flights (downstream ED) ------------------------------------------------

func cleanFlight(rng *rand.Rand) (record, string) {
	carrier := pick(rng, []string{"AA", "UA", "DL", "WN", "B6", "AS"})
	r := record{fields: []data.Field{
		{Name: "datasource", Value: pick(rng, []string{"flightview", "flightaware", "airtravelcenter", "orbitz"})},
		{Name: "flight", Value: fmt.Sprintf("%s-%d", carrier, 100+rng.Intn(4900))},
		{Name: "scheduled_departure", Value: ampmTime(rng)},
		{Name: "actual_departure", Value: ampmTime(rng)},
		{Name: "scheduled_arrival", Value: ampmTime(rng)},
		{Name: "actual_arrival", Value: ampmTime(rng)},
	}}
	targets := []string{"scheduled_departure", "actual_departure", "scheduled_arrival", "actual_arrival", "flight"}
	return r, pick(rng, targets)
}

func corruptFlight(rng *rand.Rand, r record, target string) corruption {
	if target == "flight" {
		return corruption{typo(rng, r.value(target)), "flight-typo"}
	}
	switch rng.Intn(3) {
	case 0:
		return corruption{badTime(rng), "time-format"} // 24h format, planted format rule
	case 1:
		return corruption{"nan", "missing"}
	default:
		// Dropped meridiem marker — still a format error.
		v := r.value(target)
		v = strings.ReplaceAll(strings.ReplaceAll(v, " a.m.", ""), " p.m.", "")
		return corruption{v, "time-no-meridiem"}
	}
}

func genFlightsED(rng *rand.Rand, train, test int) *Bundle {
	ds := edDataset(rng, "Flights", train, test, 0.3, cleanFlight, corruptFlight)
	return &Bundle{DS: ds, Kind: tasks.ED, Seed: &tasks.Knowledge{
		Text: "Errors may include spelling errors, missing values, inconsistencies, or values that don't make sense.",
	}}
}

// --- Rayyan (downstream ED + DC) ---------------------------------------------

var journalAbbrevs = []string{
	"J Data Eng", "Proc VLDB", "Trans Knowl Eng", "Inf Syst J", "Data Min Rev",
	"J Mach Learn Res", "Comput Surv", "Database Lett", "Knowl Inf Syst", "Big Data J",
}

func cleanRayyan(rng *rand.Rand) (record, string) {
	issue := fmt.Sprintf("%d", rng.Intn(13)) // 0 is VALID (planted trap)
	volume := fmt.Sprintf("%d", rng.Intn(40))
	r := record{fields: []data.Field{
		{Name: "article_title", Value: fmt.Sprintf(pick(rng, paperPatterns), pick(rng, paperTopics))},
		{Name: "journal_abbreviation", Value: pick(rng, journalAbbrevs)},
		{Name: "article_jcreated_at", Value: isoDateStr(rng)},
		{Name: "article_jissue", Value: issue},
		{Name: "article_jvolumn", Value: volume},
		{Name: "journal_issn", Value: issn(rng)},
		{Name: "article_pagination", Value: fmt.Sprintf("%d-%d", 1+rng.Intn(400), 401+rng.Intn(300))},
	}}
	targets := []string{"article_jcreated_at", "journal_issn", "journal_abbreviation", "article_title", "article_jissue"}
	return r, pick(rng, targets)
}

func corruptRayyan(rng *rand.Rand, r record, target string) corruption {
	v := r.value(target)
	switch target {
	case "article_jcreated_at":
		if maybe(rng, 0.7) {
			// Same date re-rendered as "4/3/15" (planted format rule), so a
			// cleaner can recover the ISO form from the dirty value.
			return corruption{isoToSlash(v), "date-format"}
		}
		return corruption{"nan", "missing"}
	case "journal_issn":
		if maybe(rng, 0.5) {
			return corruption{strings.ReplaceAll(v, "-", ""), "issn-format"}
		}
		return corruption{v[:len(v)-1], "issn-truncated"}
	case "journal_abbreviation":
		return corruption{typo(rng, v), "abbrev-typo"}
	case "article_title":
		return corruption{"nan", "missing"}
	default: // article_jissue — the only true error here is a non-numeric mess
		return corruption{"vol." + v, "issue-format"}
	}
}

func genRayyanED(rng *rand.Rand, train, test int) *Bundle {
	ds := edDataset(rng, "Rayyan", train, test, 0.27, cleanRayyan, corruptRayyan)
	return &Bundle{DS: ds, Kind: tasks.ED, Seed: &tasks.Knowledge{
		Text: "Errors may include spelling errors, missing values, or format violations.",
	}}
}

// --- Upstream ED: Adult, Hospital -------------------------------------------

func genAdultED(rng *rand.Rand, train, test int) *Bundle {
	workclasses := []string{"private", "self-emp", "federal-gov", "state-gov", "local-gov"}
	educations := []string{"bachelors", "hs-grad", "masters", "doctorate", "some-college", "assoc"}
	occupations := []string{"tech-support", "sales", "exec-managerial", "craft-repair", "farming", "clerical"}
	cleanGen := func(rng *rand.Rand) (record, string) {
		r := record{fields: []data.Field{
			{Name: "age", Value: fmt.Sprintf("%d", 18+rng.Intn(60))},
			{Name: "workclass", Value: pick(rng, workclasses)},
			{Name: "education", Value: pick(rng, educations)},
			{Name: "occupation", Value: pick(rng, occupations)},
			{Name: "hours_per_week", Value: fmt.Sprintf("%d", 10+rng.Intn(60))},
			{Name: "income", Value: pick(rng, []string{"<=50K", ">50K"})},
		}}
		return r, pick(rng, []string{"age", "workclass", "education", "hours_per_week"})
	}
	corrupt := func(rng *rand.Rand, r record, target string) corruption {
		v := r.value(target)
		switch target {
		case "age":
			if maybe(rng, 0.5) {
				return corruption{fmt.Sprintf("-%d", 1+rng.Intn(40)), "age-negative"}
			}
			return corruption{fmt.Sprintf("%d", 150+rng.Intn(400)), "age-range"}
		case "hours_per_week":
			return corruption{"nan", "missing"}
		default:
			return corruption{typo(rng, v), "categorical-typo"}
		}
	}
	samples, positives, _ := PaperUpstreamSize("ED/Adult")
	ds := edDataset(rng, "Adult", train, test, float64(positives)/float64(samples), cleanGen, corrupt)
	return &Bundle{DS: ds, Kind: tasks.ED, Seed: &tasks.Knowledge{
		Text: "Errors include out-of-range numbers, typos in categories, and missing values.",
	}}
}

func genHospitalED(rng *rand.Rand, train, test int) *Bundle {
	conditions := []string{"heart attack", "pneumonia", "heart failure", "surgical infection"}
	cleanGen := func(rng *rand.Rand) (record, string) {
		city := pick(rng, cities)
		r := record{fields: []data.Field{
			{Name: "provider_number", Value: fmt.Sprintf("%05d", 10000+rng.Intn(89999))},
			{Name: "name", Value: city + " " + pick(rng, []string{"general hospital", "medical center", "regional clinic"})},
			{Name: "city", Value: city},
			{Name: "state", Value: pick(rng, states)},
			{Name: "zip", Value: fmt.Sprintf("%05d", 10000+rng.Intn(89999))},
			{Name: "phone", Value: phoneNumber(rng, fmt.Sprintf("%03d", 200+rng.Intn(700)))},
			{Name: "condition", Value: pick(rng, conditions)},
		}}
		return r, pick(rng, []string{"name", "city", "zip", "phone", "condition"})
	}
	corrupt := func(rng *rand.Rand, r record, target string) corruption {
		v := r.value(target)
		switch target {
		case "zip":
			return corruption{v[:3], "zip-truncated"}
		case "phone":
			return corruption{strings.ReplaceAll(v, "-", ""), "phone-format"}
		default:
			return corruption{typo(rng, v), "text-typo"}
		}
	}
	samples, positives, _ := PaperUpstreamSize("ED/Hospital")
	ds := edDataset(rng, "Hospital", train, test, float64(positives)/float64(samples), cleanGen, corrupt)
	return &Bundle{DS: ds, Kind: tasks.ED, Seed: &tasks.Knowledge{
		Text: "Errors are mostly injected typos in text fields and malformed identifiers.",
	}}
}

// --- DC: Rayyan, Beer --------------------------------------------------------

// dcProposals enumerates candidate corrections for a corrupted value, the
// way repair systems like Baran propose fixes: invertible transforms of the
// dirty value plus dictionary lookups from the column's clean-value pool.
// The gold correction is appended if the proposals missed it (recall of the
// proposal engine is near-perfect on the planted error taxonomy; the append
// keeps the dataset well-posed either way).
func dcProposals(rng *rand.Rand, dirty, gold string, dict []string) ([]string, int) {
	seen := map[string]bool{}
	var out []string
	add := func(v string) {
		v = strings.TrimSpace(v)
		if v == "" || seen[strings.ToLower(v)] {
			return
		}
		seen[strings.ToLower(v)] = true
		out = append(out, v)
	}
	if strings.Contains(dirty, "%") {
		add(strings.ReplaceAll(dirty, "%", ""))
	}
	if iso, ok := tryDateISO(dirty); ok {
		add(iso)
	}
	// Strip stray symbols (negative signs, punctuation) from numeric-ish
	// values: "-45" → "45".
	{
		var sb strings.Builder
		for _, r := range dirty {
			if r == ' ' || r == '.' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
				sb.WriteRune(r)
			}
		}
		if s := strings.TrimSpace(sb.String()); s != "" && s != dirty {
			add(s)
		}
	}
	// Dictionary spell-fixes: closest two entries.
	type cand struct {
		w string
		d int
	}
	var close []cand
	for _, w := range dict {
		d := tasks.EditDistance(strings.ToLower(dirty), strings.ToLower(w), 32)
		if d > 0 && d <= 3 {
			close = append(close, cand{w, d})
		}
	}
	for i := 0; i < len(close); i++ {
		for j := i + 1; j < len(close); j++ {
			if close[j].d < close[i].d {
				close[i], close[j] = close[j], close[i]
			}
		}
	}
	for i := 0; i < len(close) && i < 2; i++ {
		add(close[i].w)
	}
	add("-1")
	add(tasks.AnswerNA)
	// Distractors from the dictionary.
	for i := 0; i < 3 && len(dict) > 0; i++ {
		add(dict[rng.Intn(len(dict))])
	}
	add(gold)
	goldIdx := -1
	for i, c := range out {
		if strings.EqualFold(c, gold) {
			goldIdx = i
		}
	}
	return out, goldIdx
}

// isoToSlash re-renders "2015-04-03" as "4/3/15"; malformed input is
// returned unchanged.
func isoToSlash(v string) string {
	if len(v) != 10 || v[4] != '-' || v[7] != '-' {
		return v
	}
	y := v[2:4]
	m := strings.TrimPrefix(v[5:7], "0")
	d := strings.TrimPrefix(v[8:10], "0")
	return m + "/" + d + "/" + y
}

func tryDateISO(v string) (string, bool) {
	parts := strings.Split(strings.TrimSpace(v), "/")
	if len(parts) != 3 {
		return "", false
	}
	var nums [3]int
	for i, p := range parts {
		n := 0
		if p == "" {
			return "", false
		}
		for _, c := range p {
			if c < '0' || c > '9' {
				return "", false
			}
			n = n*10 + int(c-'0')
		}
		nums[i] = n
	}
	m, d, y := nums[0], nums[1], nums[2]
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return "", false
	}
	if y < 100 {
		// Standard two-digit-year pivot: 70–99 → 1900s, 00–69 → 2000s.
		if y >= 70 {
			y += 1900
		} else {
			y += 2000
		}
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d), true
}

// dcDataset builds a data-cleaning dataset from the same record pipeline as
// its ED sibling: every instance has a corrupted target, the gold answer is
// the clean value, candidates come from the proposal engine.
func dcDataset(rng *rand.Rand, name string, train, test int,
	cleanGen func(rng *rand.Rand) (record, string),
	corrupt func(rng *rand.Rand, r record, target string) corruption,
	dictFor func(attr string) []string) *data.Dataset {
	ds := &data.Dataset{Name: name, Task: string(tasks.DC)}
	for i := 0; i < train+test; i++ {
		r, target := cleanGen(rng)
		gold := r.value(target)
		c := corrupt(rng, r, target)
		if tasks.IsMissingValue(c.value) {
			// Dataset convention (and the planted Rayyan rule the paper's
			// searched knowledge documents): when the value is missing and
			// cannot be inferred, the expected correction is "-1".
			gold = "-1"
		}
		dirty := r.withValue(target, c.value)
		cands, goldIdx := dcProposals(rng, c.value, gold, dictFor(target))
		in := &data.Instance{
			ID:         fmt.Sprintf("%s-dc-%d", name, i),
			Fields:     dirty.fields,
			Target:     target,
			Candidates: cands,
			Gold:       goldIdx,
			Meta:       map[string]string{"error_type": c.kind},
		}
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return ds
}

func genBeerDC(rng *rand.Rand, train, test int) *Bundle {
	dictFor := func(attr string) []string {
		switch attr {
		case "city":
			return cities
		case "style":
			return beerStyles
		case "beer_name":
			var names []string
			for _, a := range beerNameParts1 {
				for _, b := range beerNameParts2 {
					names = append(names, a+" "+b)
				}
			}
			return names
		default:
			return nil
		}
	}
	ds := dcDataset(rng, "Beer", train, test, cleanBeer, corruptBeer, dictFor)
	return &Bundle{DS: ds, Kind: tasks.DC, Seed: &tasks.Knowledge{
		Text: "Correct the erroneous value using the other attributes of the record.",
	}}
}

func genRayyanDC(rng *rand.Rand, train, test int) *Bundle {
	dictFor := func(attr string) []string {
		if attr == "journal_abbreviation" {
			return journalAbbrevs
		}
		return nil
	}
	ds := dcDataset(rng, "Rayyan", train, test, cleanRayyan, corruptRayyan, dictFor)
	return &Bundle{DS: ds, Kind: tasks.DC, Seed: &tasks.Knowledge{
		Text: "Correct the erroneous value; use -1 when no value can be inferred.",
	}}
}
