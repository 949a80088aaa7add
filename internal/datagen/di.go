package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/data"
	"repro/internal/tasks"
)

// diInstance assembles a data-imputation instance: the target attribute is
// present with a missing marker, candidates enumerate plausible values from
// the record context, and gold is the true value (appended when the
// enumerator's recall misses it).
func diInstance(id string, fields []data.Field, target, gold string, cands []string) *data.Instance {
	seen := map[string]bool{}
	var out []string
	for _, c := range append(cands, gold) {
		c = strings.TrimSpace(c)
		lc := strings.ToLower(c)
		if c == "" || seen[lc] {
			continue
		}
		seen[lc] = true
		out = append(out, c)
	}
	goldIdx := -1
	for i, c := range out {
		if strings.EqualFold(c, gold) {
			goldIdx = i
		}
	}
	fields = append(fields, data.Field{Name: target, Value: "nan"})
	return &data.Instance{
		ID:         id,
		Fields:     fields,
		Target:     target,
		Candidates: out,
		Gold:       goldIdx,
	}
}

// brandCandidates enumerates brand-like candidates the way an imputer
// without gold access would: leading words of the product name, capitalized
// description tokens, plus vocabulary distractors.
func brandCandidates(rng *rand.Rand, name, desc string) []string {
	var cands []string
	words := strings.Fields(name)
	for i := 0; i < len(words) && i < 3; i++ {
		cands = append(cands, words[i])
	}
	for _, w := range strings.Fields(desc) {
		if len(w) > 3 && w[0] >= 'A' && w[0] <= 'Z' {
			cands = append(cands, strings.Trim(w, ".,"))
			if len(cands) > 6 {
				break
			}
		}
	}
	for i := 0; i < 2; i++ {
		cands = append(cands, pick(rng, brands))
	}
	cands = append(cands, tasks.AnswerNA)
	return cands
}

// genFlipkartDI: impute the brand of marketplace listings. Planted rules
// (Table VIII): the brand opens the product name ~70% of the time and is
// repeated inside the description otherwise.
func genFlipkartDI(rng *rand.Rand, train, test int) *Bundle {
	ds := &data.Dataset{Name: "Flipkart", Task: string(tasks.DI)}
	for i := 0; i < train+test; i++ {
		p := genProduct(rng)
		var name string
		if maybe(rng, 0.7) {
			name = p.title(rng, false) // brand-first title
		} else {
			// Brand absent from the name; only the description carries it.
			name = strings.Join([]string{p.adj, p.noun, p.model, p.color}, " ")
		}
		desc := fmt.Sprintf("Buy %s %s %s for Rs.%d online. %s %s at best prices with fast delivery.",
			p.brand, p.adj, p.noun, int(p.price*10), p.brand, p.noun)
		fields := []data.Field{
			{Name: "product_name", Value: name},
			{Name: "description", Value: desc},
			{Name: "retail_price", Value: fmt.Sprintf("%d", int(p.price*10))},
		}
		in := diInstance(fmt.Sprintf("Flipkart-%d", i), fields, "brand", p.brand,
			brandCandidates(rng, name, desc))
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return &Bundle{DS: ds, Kind: tasks.DI, Seed: &tasks.Knowledge{
		Text: "Infer the manufacturer of the product from the record.",
	}}
}

// genPhoneDI: unlocked-phone listings where the brand is (almost) always
// the first word of the product name — the Table VIII Phone rule.
func genPhoneDI(rng *rand.Rand, train, test int) *Bundle {
	ds := &data.Dataset{Name: "Phone", Task: string(tasks.DI)}
	for i := 0; i < train+test; i++ {
		p := genProduct(rng)
		name := fmt.Sprintf("%s %s %s %s %s unlocked smartphone", p.brand, p.adj, p.model, p.capacity, p.color)
		if maybe(rng, 0.08) {
			// Rare listings lead with a marketing word instead.
			name = "New " + name
		}
		fields := []data.Field{
			{Name: "product_name", Value: name},
			{Name: "price", Value: priceStr(p.price)},
			{Name: "rating", Value: fmt.Sprintf("%.1f", 2.5+rng.Float64()*2.5)},
		}
		in := diInstance(fmt.Sprintf("Phone-%d", i), fields, "brand", p.brand,
			brandCandidates(rng, name, ""))
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return &Bundle{DS: ds, Kind: tasks.DI, Seed: &tasks.Knowledge{
		Text: "Determine the brand from the product name.",
	}}
}

// genBuyDI (upstream): manufacturer imputation for electronics listings —
// the upstream analog of Flipkart/Phone, which is exactly the transferable
// knowledge SKC's patches should carry downstream.
func genBuyDI(rng *rand.Rand, train, test int, _ float64) *Bundle {
	ds := &data.Dataset{Name: "Buy", Task: string(tasks.DI)}
	for i := 0; i < train+test; i++ {
		p := genProduct(rng)
		name := p.title(rng, false)
		desc := p.description(rng)
		fields := []data.Field{
			{Name: "name", Value: name},
			{Name: "description", Value: desc},
			{Name: "price", Value: priceStr(p.price)},
		}
		in := diInstance(fmt.Sprintf("Buy-%d", i), fields, "manufacturer", p.brand,
			brandCandidates(rng, name, desc))
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return &Bundle{DS: ds, Kind: tasks.DI, Seed: &tasks.Knowledge{
		Text: "Infer the manufacturer from the product listing.",
	}}
}

// areaCodeOf assigns each city a stable synthetic area code; Restaurant DI's
// planted rule is that the phone's area code identifies the city.
func areaCodeOf(city string) string {
	h := 0
	for _, c := range city {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return fmt.Sprintf("%03d", 200+h%700)
}

// genRestaurantDI (upstream): impute the city of a restaurant; the area
// code of the phone number determines it.
func genRestaurantDI(rng *rand.Rand, train, test int, _ float64) *Bundle {
	ds := &data.Dataset{Name: "Restaurant", Task: string(tasks.DI)}
	for i := 0; i < train+test; i++ {
		city := pick(rng, cities)
		fields := []data.Field{
			{Name: "name", Value: pick(rng, lastNames) + "'s " + pick(rng, restaurantNouns)},
			{Name: "addr", Value: fmt.Sprintf("%d %s St", 10+rng.Intn(990), pick(rng, lastNames))},
			{Name: "phone", Value: phoneNumber(rng, areaCodeOf(city))},
			{Name: "type", Value: pick(rng, cuisines)},
		}
		// Candidates: a handful of cities including the right one.
		cands := []string{city}
		for len(cands) < 6 {
			c := pick(rng, cities)
			dup := false
			for _, e := range cands {
				if e == c {
					dup = true
				}
			}
			if !dup {
				cands = append(cands, c)
			}
		}
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		in := diInstance(fmt.Sprintf("Restaurant-%d", i), fields, "city", city, cands)
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return &Bundle{DS: ds, Kind: tasks.DI, Seed: &tasks.Knowledge{
		Text: "Infer the city of the restaurant from the other attributes.",
	}}
}
