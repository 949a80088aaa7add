package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Shared vocabulary pools. All names are synthetic; overlaps with real-world
// brands are coincidental. The pools are deliberately large enough that
// 20-shot samples cannot cover them — the source of the dataset-informed
// knowledge gap the AKB component closes.

var brands = []string{
	"Acmetron", "Nexavo", "Briston", "Veltek", "Orburn", "Quantal", "Zephyrix",
	"Lumenor", "Cravex", "Polarion", "Mistvale", "Trinketbag", "Frenemy",
	"Gildway", "Harvex", "Ionica", "Jovanti", "Kelpro", "Lyrano", "Morvath",
	"Nimbusi", "Ostrix", "Pellador", "Quorvex", "Ravella", "Solvane",
	"Tavrick", "Ulmeric", "Vandor", "Wexley", "Xandrel", "Yolvia", "Zumetra",
	"Aldervane", "Bexley", "Corvani", "Drayton", "Elmworth", "Fandrel", "Grenlow",
}

var electronicNouns = []string{
	"smartphone", "blender", "headphones", "router", "monitor", "keyboard",
	"speaker", "tablet", "charger", "camera", "printer", "projector",
	"microwave", "vacuum", "toaster", "television", "soundbar", "drone",
}

var colors = []string{"black", "white", "silver", "red", "blue", "green", "gold", "gray", "purple", "teal"}

var colorSynonyms = map[string]string{
	"gray": "grey", "gold": "golden", "red": "crimson", "blue": "navy",
}

var capacities = []string{"16GB", "32GB", "64GB", "128GB", "256GB", "512GB", "1TB"}

var adjectives = []string{"pro", "max", "lite", "plus", "ultra", "mini", "classic", "prime", "neo", "air"}

var cities = []string{
	"Springfield", "Rivertown", "Lakewood", "Fairview", "Greenville",
	"Bristol", "Clinton", "Georgetown", "Madison", "Salem", "Ashland",
	"Burlington", "Dayton", "Franklin", "Milton", "Oxford", "Arlington",
	"Clayton", "Dover", "Hudson", "Jackson", "Kingston", "Lebanon",
	"Manchester", "Newport", "Oakland", "Plymouth", "Quincy", "Riverside",
}

var states = []string{"CA", "NY", "TX", "WA", "OR", "CO", "IL", "MA", "FL", "GA", "OH", "PA", "MI", "NC", "VA", "AZ"}

var beerStyles = []string{
	"American IPA", "Imperial Stout", "Pale Ale", "Pilsner", "Amber Lager",
	"Hefeweizen", "Porter", "Saison", "Brown Ale", "Witbier", "Double IPA",
	"Kolsch", "Gose", "Barleywine", "Cream Ale",
}

var beerNameParts1 = []string{
	"Hop", "Barrel", "Golden", "Midnight", "River", "Iron", "Wild", "Copper",
	"Stone", "Cloud", "Thunder", "Velvet", "Rusty", "Silver", "Smoky",
}

var beerNameParts2 = []string{
	"Storm", "Haze", "Trail", "Fox", "Anchor", "Crown", "Meadow", "Harvest",
	"Ember", "Ridge", "Falcon", "Lantern", "Forge", "Hollow", "Summit",
}

var breweries = []string{
	"Crooked Creek Brewing", "Old Harbor Brewery", "Timberline Ales",
	"Granite Peak Brewing", "Bluebird Brewworks", "Foundry Beer Co",
	"Northgate Brewing", "Cedar and Salt", "Hollow Oak Brewery",
	"Last Light Brewing", "Merchant Brewing Co", "Pinebox Brewery",
}

var flavors = []string{
	"vanilla", "chocolate", "hazelnut", "caramel", "strawberry", "mango",
	"peach", "espresso", "cinnamon", "coconut", "raspberry", "mint",
	"lavender", "honey", "pumpkin spice", "matcha",
}

var scents = []string{"citrus", "rose", "sandalwood", "jasmine", "eucalyptus", "cedar", "bergamot", "vetiver"}

var groceryNouns = []string{"coffee", "tea", "protein bar", "granola", "body wash", "candle", "lotion", "shampoo"}

var sportTypes = []string{"running", "cycling", "yoga", "basketball", "tennis", "hiking", "swimming", "golf"}

var apparelNouns = []string{"shoes", "jacket", "shorts", "leggings", "socks", "cap", "gloves", "hoodie"}

var genders = []string{"Men", "Women", "Unisex"}

var features = []string{"breathable", "waterproof", "lightweight", "insulated", "reflective", "quick-dry"}

var firstNames = []string{
	"Ada", "Boris", "Chen", "Dmitri", "Elena", "Farid", "Grace", "Hiro",
	"Ines", "Jonas", "Karim", "Lena", "Marco", "Nadia", "Omar", "Priya",
	"Quentin", "Rosa", "Sven", "Tara", "Umar", "Vera", "Wei", "Xenia",
}

var lastNames = []string{
	"Albright", "Bergstrom", "Castellanos", "Dunmore", "Eklund", "Farnsworth",
	"Granger", "Holloway", "Ivanov", "Jernigan", "Kowalski", "Lindqvist",
	"Marchetti", "Norwood", "Okafor", "Petrakis", "Quintero", "Rosenthal",
	"Sandoval", "Thackeray", "Ulrich", "Vasquez", "Whitfield", "Yamamoto",
}

var paperTopics = []string{
	"query optimization", "entity resolution", "stream processing",
	"index structures", "transaction management", "data cleaning",
	"schema matching", "graph analytics", "approximate query answering",
	"distributed joins", "crowdsourced labeling", "workload forecasting",
	"cardinality estimation", "materialized views", "provenance tracking",
}

var paperPatterns = []string{
	"Efficient %s in large-scale systems",
	"A survey of %s techniques",
	"Learning-based %s for modern databases",
	"Scalable %s with provable guarantees",
	"Adaptive %s under resource constraints",
	"Towards practical %s",
	"Revisiting %s for analytical workloads",
}

var venues = []string{"SIGMOD", "VLDB", "ICDE", "EDBT", "CIKM", "KDD"}

var venueLong = map[string]string{
	"SIGMOD": "International Conference on Management of Data",
	"VLDB":   "Very Large Data Bases",
	"ICDE":   "International Conference on Data Engineering",
	"EDBT":   "Extending Database Technology",
	"CIKM":   "Conference on Information and Knowledge Management",
	"KDD":    "Knowledge Discovery and Data Mining",
}

var restaurantNouns = []string{
	"Bistro", "Grill", "Kitchen", "Tavern", "Cantina", "Diner", "Trattoria",
	"Brasserie", "Cafe", "Chophouse", "Noodle House", "Steakhouse",
}

var cuisines = []string{"italian", "mexican", "japanese", "american", "thai", "french", "indian", "mediterranean"}

var songAdjs = []string{"Midnight", "Golden", "Broken", "Electric", "Silent", "Neon", "Crimson", "Velvet"}
var songNouns = []string{"Highway", "Hearts", "Echoes", "Rivers", "Shadows", "Summer", "Letters", "Skylines"}
var artists = []string{
	"The Glass Harbors", "Nova Reyes", "Cobalt Drive", "June Atlas",
	"Paper Lanterns", "Miles Quinn", "The Foxgloves", "Stella Marlowe",
}

// pick returns a uniformly random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// pickOther returns a random element different from avoid (by string
// comparison of fmt.Sprint); the slice must contain at least two distinct
// values.
func pickOther[T comparable](rng *rand.Rand, xs []T, avoid T) T {
	for i := 0; i < 64; i++ {
		if x := pick(rng, xs); x != avoid {
			return x
		}
	}
	return xs[0]
}

// typo injects one character-level error (substitution, deletion,
// transposition, or duplication) into a word of s.
func typo(rng *rand.Rand, s string) string {
	rs := []rune(s)
	if len(rs) < 3 {
		return s + "x"
	}
	i := 1 + rng.Intn(len(rs)-2)
	switch rng.Intn(4) {
	case 0: // substitution
		rs[i] = rune('a' + rng.Intn(26))
	case 1: // deletion
		rs = append(rs[:i], rs[i+1:]...)
	case 2: // transposition
		rs[i-1], rs[i] = rs[i], rs[i-1]
	default: // duplication
		rs = append(rs[:i+1], rs[i:]...)
	}
	out := string(rs)
	if out == s {
		return s + "x"
	}
	return out
}

// maybe returns true with probability p.
func maybe(rng *rand.Rand, p float64) bool { return rng.Float64() < p }

// modelNumber generates an alphanumeric model identifier like "BX-2041".
func modelNumber(rng *rand.Rand) string {
	letters := "ABCDEFGHKLMNPRSTVWX"
	return fmt.Sprintf("%c%c-%d",
		letters[rng.Intn(len(letters))],
		letters[rng.Intn(len(letters))],
		100+rng.Intn(9900))
}

// phoneNumber generates a phone number with the given area code.
func phoneNumber(rng *rand.Rand, area string) string {
	return fmt.Sprintf("%s-%03d-%04d", area, 100+rng.Intn(900), rng.Intn(10000))
}

// issn generates a well-formed ISSN.
func issn(rng *rand.Rand) string {
	return fmt.Sprintf("%04d-%04d", rng.Intn(10000), rng.Intn(10000))
}

// isoDate generates an ISO date between 1998 and 2023.
func isoDate(rng *rand.Rand) (y, m, d int) {
	return 1998 + rng.Intn(26), 1 + rng.Intn(12), 1 + rng.Intn(28)
}

func isoDateStr(rng *rand.Rand) string {
	y, m, d := isoDate(rng)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// ampmTime renders a flight-style timestamp "7:10 a.m. Dec 1".
func ampmTime(rng *rand.Rand) string {
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	h := 1 + rng.Intn(12)
	mm := rng.Intn(60)
	ampm := "a.m."
	if maybe(rng, 0.5) {
		ampm = "p.m."
	}
	return fmt.Sprintf("%d:%02d %s %s %d", h, mm, ampm, pick(rng, months), 1+rng.Intn(28))
}

// badTime renders a malformed timestamp (24h format, the planted Flights
// format error).
func badTime(rng *rand.Rand) string {
	return fmt.Sprintf("%02d:%02d", rng.Intn(24), rng.Intn(60))
}

// abbreviate shortens a multi-word string to initial fragments ("New York
// City" → "NYC" style) — the benign variation the Beer knowledge says is
// not an error.
func abbreviate(s string) string {
	words := strings.Fields(s)
	if len(words) < 2 {
		if len(s) > 4 {
			return s[:4] + "."
		}
		return s
	}
	var sb strings.Builder
	for _, w := range words {
		sb.WriteByte(w[0])
	}
	return strings.ToUpper(sb.String())
}

// personName renders a random person name; style 0 = "First Last",
// 1 = "F. Last", 2 = "Last, First".
func personName(rng *rand.Rand, style int) string {
	f, l := pick(rng, firstNames), pick(rng, lastNames)
	switch style {
	case 1:
		return f[:1] + ". " + l
	case 2:
		return l + ", " + f
	default:
		return f + " " + l
	}
}
