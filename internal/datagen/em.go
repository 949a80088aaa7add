package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/data"
	"repro/internal/tasks"
)

// pairInstance assembles a two-entity instance with yes/no candidates.
func pairInstance(id string, a, b []data.Field, match bool) *data.Instance {
	fields := make([]data.Field, 0, len(a)+len(b))
	for _, f := range a {
		f.Entity = "A"
		fields = append(fields, f)
	}
	for _, f := range b {
		f.Entity = "B"
		fields = append(fields, f)
	}
	gold := 1
	if match {
		gold = 0
	}
	return &data.Instance{
		ID:         id,
		Fields:     fields,
		Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
		Gold:       gold,
	}
}

// product is the latent entity behind the product EM/DI/AVE datasets.
type product struct {
	brand    string
	noun     string
	adj      string
	model    string
	color    string
	capacity string
	price    float64
}

func genProduct(rng *rand.Rand) product {
	return product{
		brand:    pick(rng, brands),
		noun:     pick(rng, electronicNouns),
		adj:      pick(rng, adjectives),
		model:    modelNumber(rng),
		color:    pick(rng, colors),
		capacity: pick(rng, capacities),
		price:    10 + rng.Float64()*990,
	}
}

// title renders the product; variant=true produces the "other catalog"
// surface form: reordered words, color synonyms, occasionally dropped
// attributes — the same entity described differently.
func (p product) title(rng *rand.Rand, variant bool) string {
	color := p.color
	if variant {
		if syn, ok := colorSynonyms[color]; ok && maybe(rng, 0.5) {
			color = syn
		}
	}
	parts := []string{p.brand, p.noun, p.adj, p.model}
	if maybe(rng, 0.7) {
		parts = append(parts, color)
	}
	if maybe(rng, 0.5) {
		parts = append(parts, p.capacity)
	}
	if variant {
		// Reorder noun/adj and sometimes lowercase the brand.
		parts = []string{p.brand, p.adj, p.noun, p.model}
		if maybe(rng, 0.5) {
			parts[0] = strings.ToLower(parts[0])
		}
		if maybe(rng, 0.6) {
			parts = append(parts, color)
		}
		if maybe(rng, 0.4) {
			parts = append(parts, p.capacity)
		}
	}
	return strings.Join(parts, " ")
}

func (p product) description(rng *rand.Rand) string {
	templates := []string{
		"Buy %s %s %s online at the best price. Genuine %s products only.",
		"The %s %s %s combines everyday reliability with premium design.",
		"%s presents the %s %s, engineered for performance.",
	}
	t := pick(rng, templates)
	if strings.Count(t, "%s") == 4 {
		return fmt.Sprintf(t, p.brand, p.adj, p.noun, p.brand)
	}
	return fmt.Sprintf(t, p.brand, p.adj, p.noun)
}

func priceStr(price float64) string { return fmt.Sprintf("%.2f", price) }

// emPair builds one EM pair for product datasets. Positives are two surface
// forms of the same product (price jitter, missing descriptions, synonyms);
// hard negatives share brand and noun but differ in model number — the
// planted rule that model numbers are the primary identifiers (Table VIII,
// Abt-Buy / Walmart-Amazon knowledge).
func emPair(rng *rand.Rand, render func(p product, variant bool) []data.Field, id string, positive bool) *data.Instance {
	p := genProduct(rng)
	if positive {
		return pairInstance(id, render(p, false), render(p, true), true)
	}
	q := p
	if maybe(rng, 0.6) {
		// Hard negative: same brand/noun family, different model.
		q.model = modelNumber(rng)
		q.adj = pickOther(rng, adjectives, p.adj)
		q.price = p.price * (0.8 + rng.Float64()*0.4)
		if maybe(rng, 0.7) {
			q.capacity = pickOther(rng, capacities, p.capacity)
		}
	} else {
		q = genProduct(rng)
	}
	return pairInstance(id, render(p, false), render(q, true), false)
}

// buildPairDataset generates a matching dataset with the given positive rate.
func buildPairDataset(rng *rand.Rand, name string, kind tasks.Kind, train, test int, posRate float64,
	gen func(rng *rand.Rand, id string, positive bool) *data.Instance) *data.Dataset {
	ds := &data.Dataset{Name: name, Task: string(kind)}
	for i := 0; i < train+test; i++ {
		in := gen(rng, fmt.Sprintf("%s-%d", name, i), maybe(rng, posRate))
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return ds
}

// --- Downstream EM ---------------------------------------------------------

// genAbtBuyEM: products with name/description/price only (no structured
// brand or model attributes — the model number hides inside the name, which
// is why the paper's searched knowledge stresses implicit matching).
func genAbtBuyEM(rng *rand.Rand, train, test int) *Bundle {
	render := func(p product, variant bool) []data.Field {
		desc := p.description(rng)
		if variant && maybe(rng, 0.35) {
			desc = "nan" // planted: incomplete data must not imply non-match
		}
		return []data.Field{
			{Name: "name", Value: p.title(rng, variant)},
			{Name: "description", Value: desc},
			{Name: "price", Value: priceStr(p.price * (0.85 + rng.Float64()*0.3))},
		}
	}
	ds := buildPairDataset(rng, "Abt-Buy", tasks.EM, train, test, 0.22,
		func(rng *rand.Rand, id string, pos bool) *data.Instance { return emPair(rng, render, id, pos) })
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two products are the same.",
	}}
}

// genWalmartAmazonEM: structured product records with a modelno attribute,
// nan-heavy descriptions, and freely differing prices (Table VIII knowledge:
// model numbers and capacity decide; nan descriptions are uninformative).
func genWalmartAmazonEM(rng *rand.Rand, train, test int) *Bundle {
	render := func(p product, variant bool) []data.Field {
		desc := p.description(rng)
		if maybe(rng, 0.45) {
			desc = "nan"
		}
		modelno := p.model
		if variant && maybe(rng, 0.15) {
			modelno = strings.ToLower(p.model)
		}
		return []data.Field{
			{Name: "title", Value: p.title(rng, variant)},
			{Name: "brand", Value: p.brand},
			{Name: "modelno", Value: modelno},
			{Name: "price", Value: priceStr(p.price * (0.7 + rng.Float64()*0.6))},
			{Name: "description", Value: desc},
		}
	}
	ds := buildPairDataset(rng, "Walmart-Amazon", tasks.EM, train, test, 0.2,
		func(rng *rand.Rand, id string, pos bool) *data.Instance { return emPair(rng, render, id, pos) })
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two products are the same.",
	}}
}

// --- Upstream EM -----------------------------------------------------------

func genAmazonGoogleEM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	render := func(p product, variant bool) []data.Field {
		return []data.Field{
			{Name: "title", Value: p.title(rng, variant)},
			{Name: "manufacturer", Value: p.brand},
			{Name: "price", Value: priceStr(p.price * (0.8 + rng.Float64()*0.4))},
		}
	}
	ds := buildPairDataset(rng, "Amazon-Google", tasks.EM, train, test, posRate,
		func(rng *rand.Rand, id string, pos bool) *data.Instance { return emPair(rng, render, id, pos) })
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two software product listings are the same.",
	}}
}

func genBeerEM(rng *rand.Rand, train, test int, _ float64) *Bundle {
	gen := func(rng *rand.Rand, id string, pos bool) *data.Instance {
		name := pick(rng, beerNameParts1) + " " + pick(rng, beerNameParts2)
		brewery := pick(rng, breweries)
		style := pick(rng, beerStyles)
		abv := 0.03 + rng.Float64()*0.09
		a := []data.Field{
			{Name: "beer_name", Value: name},
			{Name: "brewery", Value: brewery},
			{Name: "style", Value: style},
			{Name: "abv", Value: fmt.Sprintf("%.2f", abv)},
		}
		var b []data.Field
		if pos {
			n2 := name
			if maybe(rng, 0.4) {
				n2 = strings.ToLower(name)
			}
			br2 := brewery
			if maybe(rng, 0.3) {
				br2 = abbreviate(brewery)
			}
			b = []data.Field{
				{Name: "beer_name", Value: n2},
				{Name: "brewery", Value: br2},
				{Name: "style", Value: style},
				{Name: "abv", Value: fmt.Sprintf("%.2f", abv+(rng.Float64()-0.5)*0.004)},
			}
		} else {
			n2 := pick(rng, beerNameParts1) + " " + pick(rng, beerNameParts2)
			br2 := brewery
			if maybe(rng, 0.5) {
				br2 = pickOther(rng, breweries, brewery)
			}
			b = []data.Field{
				{Name: "beer_name", Value: n2},
				{Name: "brewery", Value: br2},
				{Name: "style", Value: pick(rng, beerStyles)},
				{Name: "abv", Value: fmt.Sprintf("%.2f", 0.03+rng.Float64()*0.09)},
			}
		}
		return pairInstance(id, a, b, pos)
	}
	ds := buildPairDataset(rng, "Beer", tasks.EM, train, test, 0.15, gen)
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two beers are the same.",
	}}
}

// paper is the latent entity behind the bibliography EM datasets.
type paper struct {
	title   string
	authors []string
	venue   string
	year    int
}

func genPaper(rng *rand.Rand) paper {
	n := 2 + rng.Intn(3)
	var authors []string
	for i := 0; i < n; i++ {
		authors = append(authors, personName(rng, 0))
	}
	return paper{
		title:   fmt.Sprintf(pick(rng, paperPatterns), pick(rng, paperTopics)),
		authors: authors,
		venue:   pick(rng, venues),
		year:    2000 + rng.Intn(24),
	}
}

func (p paper) fields(rng *rand.Rand, noisy bool) []data.Field {
	title := p.title
	authors := strings.Join(p.authors, ", ")
	venue := p.venue
	year := fmt.Sprintf("%d", p.year)
	if noisy {
		if maybe(rng, 0.5) {
			title = strings.ToLower(title)
		}
		if maybe(rng, 0.5) {
			var initials []string
			for _, a := range p.authors {
				parts := strings.Fields(a)
				initials = append(initials, parts[0][:1]+". "+parts[len(parts)-1])
			}
			authors = strings.Join(initials, ", ")
		}
		if maybe(rng, 0.5) {
			venue = venueLong[p.venue]
		}
		if maybe(rng, 0.25) {
			year = "nan"
		}
	}
	return []data.Field{
		{Name: "title", Value: title},
		{Name: "authors", Value: authors},
		{Name: "venue", Value: venue},
		{Name: "year", Value: year},
	}
}

func genBibEM(rng *rand.Rand, name string, train, test int, posRate float64, noisy bool) *Bundle {
	gen := func(rng *rand.Rand, id string, pos bool) *data.Instance {
		p := genPaper(rng)
		a := p.fields(rng, false)
		var b []data.Field
		if pos {
			b = p.fields(rng, noisy)
		} else {
			q := genPaper(rng)
			if maybe(rng, 0.5) {
				// Hard negative: same authors, different paper.
				q.authors = p.authors
				q.venue = p.venue
			}
			b = q.fields(rng, noisy)
		}
		return pairInstance(id, a, b, pos)
	}
	ds := buildPairDataset(rng, name, tasks.EM, train, test, posRate, gen)
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two publication records refer to the same paper.",
	}}
}

func genDBLPACMEM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	return genBibEM(rng, "DBLP-ACM", train, test, posRate, false)
}

func genDBLPScholarEM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	return genBibEM(rng, "DBLP-GoogleScholar", train, test, posRate, true)
}

func genFodorsZagatsEM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	gen := func(rng *rand.Rand, id string, pos bool) *data.Instance {
		name := pick(rng, lastNames) + "'s " + pick(rng, restaurantNouns)
		city := pick(rng, cities)
		area := fmt.Sprintf("%03d", 200+rng.Intn(700))
		phone := phoneNumber(rng, area)
		cuisine := pick(rng, cuisines)
		addr := fmt.Sprintf("%d %s St", 10+rng.Intn(990), pick(rng, lastNames))
		a := []data.Field{
			{Name: "name", Value: name}, {Name: "addr", Value: addr},
			{Name: "city", Value: city}, {Name: "phone", Value: phone},
			{Name: "type", Value: cuisine},
		}
		var b []data.Field
		if pos {
			n2 := name
			if maybe(rng, 0.4) {
				n2 = strings.ToLower(strings.ReplaceAll(name, "'s", "s"))
			}
			c2 := cuisine
			if maybe(rng, 0.3) {
				c2 = pickOther(rng, cuisines, cuisine)
			}
			b = []data.Field{
				{Name: "name", Value: n2}, {Name: "addr", Value: addr},
				{Name: "city", Value: city}, {Name: "phone", Value: phone},
				{Name: "type", Value: c2},
			}
		} else {
			b = []data.Field{
				{Name: "name", Value: pick(rng, lastNames) + "'s " + pick(rng, restaurantNouns)},
				{Name: "addr", Value: fmt.Sprintf("%d %s Ave", 10+rng.Intn(990), pick(rng, lastNames))},
				{Name: "city", Value: city},
				{Name: "phone", Value: phoneNumber(rng, area)},
				{Name: "type", Value: pick(rng, cuisines)},
			}
		}
		return pairInstance(id, a, b, pos)
	}
	ds := buildPairDataset(rng, "Fodors-Zagats", tasks.EM, train, test, posRate, gen)
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two restaurant records are the same.",
	}}
}

func genITunesAmazonEM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	gen := func(rng *rand.Rand, id string, pos bool) *data.Instance {
		title := pick(rng, songAdjs) + " " + pick(rng, songNouns)
		artist := pick(rng, artists)
		album := pick(rng, songAdjs) + " " + pick(rng, songNouns) + " LP"
		secs := 150 + rng.Intn(200)
		timeStr := fmt.Sprintf("%d:%02d", secs/60, secs%60)
		price := fmt.Sprintf("$%d.%02d", rng.Intn(2), 29+rng.Intn(70))
		a := []data.Field{
			{Name: "song_title", Value: title}, {Name: "artist", Value: artist},
			{Name: "album", Value: album}, {Name: "time", Value: timeStr},
			{Name: "price", Value: price},
		}
		var b []data.Field
		if pos {
			t2 := title
			if maybe(rng, 0.4) {
				t2 = title + " (Remastered)"
			}
			b = []data.Field{
				{Name: "song_title", Value: t2}, {Name: "artist", Value: artist},
				{Name: "album", Value: album}, {Name: "time", Value: timeStr},
				{Name: "price", Value: fmt.Sprintf("$%d.%02d", rng.Intn(2), 29+rng.Intn(70))},
			}
		} else {
			t2 := pick(rng, songAdjs) + " " + pick(rng, songNouns)
			ar2 := artist
			if maybe(rng, 0.4) {
				ar2 = pickOther(rng, artists, artist)
			}
			b = []data.Field{
				{Name: "song_title", Value: t2}, {Name: "artist", Value: ar2},
				{Name: "album", Value: album}, {Name: "time", Value: fmt.Sprintf("%d:%02d", 2+rng.Intn(4), rng.Intn(60))},
				{Name: "price", Value: price},
			}
		}
		return pairInstance(id, a, b, pos)
	}
	ds := buildPairDataset(rng, "iTunes-Amazon", tasks.EM, train, test, posRate, gen)
	return &Bundle{DS: ds, Kind: tasks.EM, Seed: &tasks.Knowledge{
		Text: "Determine whether the two songs are the same.",
	}}
}
