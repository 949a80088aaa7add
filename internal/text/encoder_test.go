package text

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// sampleSegs covers every extractor path: bare features, field features,
// isolated features, unicode, punctuation-heavy DP values, long tokens
// (trigrams), and repeated tokens (bigram + duplicate-bucket accumulation).
func sampleSegs() [][]Segment {
	return [][]Segment{
		{{Text: "Sony VAIO PCG-71211M 4.5% ABV", Weight: 1}},
		{{Field: "Title", Text: "canon eos 5d mark III body only", Weight: 1.5}},
		{{Field: "ISSN", Text: "0302-9743", Weight: 0.7}, {Text: "springer verlag", Weight: 0.3}},
		{{Isolated: true, Field: "know", Text: "Answer yes when the ABV values match.", Weight: 0.12}},
		{{Text: "ÅNGSTRÖM Straße 東京都 café", Weight: 1}},
		{{Text: "aaa aaa aaa aaa", Weight: 1}}, // duplicate buckets, order-sensitive sums
		{
			{Field: "description", Text: "a midsize sedan with GPS-NAV-9000 rev2", Weight: 1},
			{Isolated: true, Field: "task", Text: "entity matching", Weight: 0.25},
			{Text: "yes", Weight: 1.5},
		},
		{{Text: "", Weight: 1}},
		{{Field: "x", Text: "!", Weight: 1}},
	}
}

// requireBitIdentical fails unless the two sparse vectors are exactly equal,
// bit for bit.
func requireBitIdentical(t *testing.T, want, got *tensor.Sparse, label string) {
	t.Helper()
	if len(want.Idx) != len(got.Idx) {
		t.Fatalf("%s: nnz %d vs %d", label, len(want.Idx), len(got.Idx))
	}
	for i := range want.Idx {
		if want.Idx[i] != got.Idx[i] {
			t.Fatalf("%s: idx[%d] %d vs %d", label, i, want.Idx[i], got.Idx[i])
		}
		if math.Float64bits(want.Val[i]) != math.Float64bits(got.Val[i]) {
			t.Fatalf("%s: val[%d] %x vs %x", label, i,
				math.Float64bits(want.Val[i]), math.Float64bits(got.Val[i]))
		}
	}
}

// TestEncoderMatchesHasherEncode pins the core contract: the streaming
// Encoder produces bit-identical vectors to the reference hasher's Encode.
func TestEncoderMatchesHasherEncode(t *testing.T) {
	h := &refHasher{dim: DefaultDim}
	e := NewEncoder(NewHasher(DefaultDim))
	var got tensor.Sparse
	for i, segs := range sampleSegs() {
		want := h.Encode(segs...)
		e.EncodeTo(&got, segs)
		requireBitIdentical(t, want, &got, "case "+string(rune('A'+i)))
	}
}

// TestEncoderReuseIsClean checks that state from one EncodeTo call cannot
// leak into the next.
func TestEncoderReuseIsClean(t *testing.T) {
	e := NewEncoder(NewHasher(1 << 10))
	var got tensor.Sparse
	e.EncodeTo(&got, []Segment{{Text: "completely different text first", Weight: 2}})
	segs := []Segment{{Field: "brand", Text: "acme 9000", Weight: 1}}
	e.EncodeTo(&got, segs)
	requireBitIdentical(t, (&refHasher{dim: 1 << 10}).Encode(segs...), &got, "after reuse")
	requireBitIdentical(t, &got, e.Encode(segs), "Encode vs EncodeTo")
}

// TestEncoderZeroAlloc pins the whole point: steady-state serialization on
// the serve path allocates nothing.
func TestEncoderZeroAlloc(t *testing.T) {
	h := NewHasher(DefaultDim)
	e := NewEncoder(h)
	segs := []Segment{
		{Field: "title", Text: "dell latitude e6420 14in notebook refurbished", Weight: 1},
		{Isolated: true, Field: "know", Text: "prefer exact model number matches", Weight: 0.12},
		{Text: "yes", Weight: 1.5},
	}
	var dst tensor.Sparse
	e.EncodeTo(&dst, segs) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		e.EncodeTo(&dst, segs)
	})
	if allocs != 0 {
		t.Fatalf("EncodeTo allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// FuzzEncoderEquivalence drives arbitrary (field, text, weight, mode) inputs
// through the Encoder and the reference hasher and requires bit-identical
// output — the seed corpus covers the unicode, punctuation, and invalid-UTF-8
// edges.
func FuzzEncoderEquivalence(f *testing.F) {
	f.Add("title", "sony vaio pcg-71211m", 1.0, byte(0))
	f.Add("", "4.5% ABV — draught", 0.5, byte(1))
	f.Add("know", "Answer yes when values match.", 0.12, byte(2))
	f.Add("Straße", "ÅNGSTRÖM 東京都 café", 2.0, byte(1))
	f.Add("b", "\xff\xfe broken utf8 \x80", 1.0, byte(1))
	f.Add("x", "aaaa bbbb aaaa bbbb", -1.5, byte(0))
	f.Add("", "", 0.0, byte(0))
	h := NewHasher(1 << 11)
	ref := &refHasher{dim: 1 << 11}
	f.Fuzz(func(t *testing.T, field, text string, w float64, mode byte) {
		seg := Segment{Field: field, Text: text, Weight: w}
		switch mode % 3 {
		case 0:
			seg.Field = ""
		case 2:
			seg.Isolated = true
		}
		segs := []Segment{seg, {Text: text, Weight: w / 2}}
		e := NewEncoder(h)
		var got tensor.Sparse
		e.EncodeTo(&got, segs)
		want := ref.Encode(segs...)
		if len(want.Idx) != len(got.Idx) {
			t.Fatalf("nnz %d vs %d", len(want.Idx), len(got.Idx))
		}
		for i := range want.Idx {
			if want.Idx[i] != got.Idx[i] || math.Float64bits(want.Val[i]) != math.Float64bits(got.Val[i]) {
				t.Fatalf("divergence at %d: (%d,%x) vs (%d,%x)", i,
					want.Idx[i], math.Float64bits(want.Val[i]),
					got.Idx[i], math.Float64bits(got.Val[i]))
			}
		}
	})
}
