package text

import (
	"unicode"
	"unicode/utf8"

	"repro/internal/tensor"
)

// The Encoder never materializes an n-gram string ("u:"+t, "b:"+a+" "+b)
// just to feed FNV: it streams the same byte sequences through one FNV-1a
// state, hash("u:"+t) == fnvAddBytes(fnvAddString(h, "u:"), t). Features are
// emitted in a fixed order (per token: unigram, bigram, trigrams) because
// duplicate-bucket float accumulation sums in emission order; the reference
// hasher in the tests pins both the hashes and the order.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvAddString folds s into an in-flight FNV-1a state.
func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnvAddBytes folds p into an in-flight FNV-1a state.
func fnvAddBytes(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fnvAddLower folds the UTF-8 encoding of unicode.ToLower of each rune of s
// into the state — equivalent to fnvAddString(h, strings.ToLower(s)) without
// materializing the lowered string.
func fnvAddLower(h uint64, s string) uint64 {
	for _, r := range s {
		r = unicode.ToLower(r)
		if r < utf8.RuneSelf {
			h ^= uint64(byte(r))
			h *= fnvPrime
			continue
		}
		var buf [4]byte
		n := utf8.EncodeRune(buf[:], r)
		h = fnvAddBytes(h, buf[:n])
	}
	return h
}

// addHashed accumulates weight w at the bucket of a finished FNV-1a state,
// using one bit of the hash as a sign to make hashing approximately
// inner-product preserving.
func (h *Hasher) addHashed(b *tensor.DenseBuilder, hv uint64, w float64) {
	idx := int32(hv & uint64(h.dim-1))
	if hv&(1<<62) != 0 {
		w = -w
	}
	b.Add(idx, w)
}

// tokSpan is one token as a [lo,hi) byte range into Encoder.low.
type tokSpan struct{ lo, hi int32 }

// Encoder hashes weighted text segments into normalized sparse vectors
// without per-call allocation. It owns a reused lowered-byte buffer, token
// span list, and sparse builder; one Encoder serves one goroutine at a time
// (on the inference path each call in flight holds its own, with the rest of
// the model's per-call scratch).
type Encoder struct {
	h     *Hasher
	b     *tensor.DenseBuilder
	low   []byte
	spans []tokSpan
}

// NewEncoder returns an Encoder over h's feature space. Its dense builder
// holds 8 bytes plus 1 bit per hash dimension of resident scratch, so an
// Encoder is meant to be kept: one per model, one per predictor.
func NewEncoder(h *Hasher) *Encoder {
	return &Encoder{h: h, b: tensor.NewDenseBuilder(h.dim)}
}

// Encode returns the normalized sparse encoding of segs in a fresh vector,
// for callers that keep the result (a retrieval memo, a training sample).
func (e *Encoder) Encode(segs []Segment) *tensor.Sparse {
	dst := &tensor.Sparse{}
	e.EncodeTo(dst, segs)
	return dst
}

// EncodeTo builds the normalized sparse encoding of segs into dst, reusing
// dst's backing slices.
func (e *Encoder) EncodeTo(dst *tensor.Sparse, segs []Segment) {
	for i := range segs {
		seg := &segs[i]
		switch {
		case seg.Isolated:
			e.isolatedFeatures(seg.Field, seg.Text, seg.Weight)
		case seg.Field != "":
			e.fieldFeatures(seg.Field, seg.Text, seg.Weight)
		default:
			e.features(seg.Text, seg.Weight)
		}
	}
	e.b.BuildInto(dst)
	dst.Normalize()
}

// tokenize fills e.low/e.spans with the lowered tokens of s, reproducing
// Tokenize byte for byte: runs of letters/digits form tokens, every other
// non-space rune is a single-rune token. Lowering per rune matches
// strings.ToLower (which is strings.Map(unicode.ToLower, s)).
func (e *Encoder) tokenize(s string) {
	e.low = e.low[:0]
	e.spans = e.spans[:0]
	start := -1
	for _, r := range s {
		r = unicode.ToLower(r)
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = len(e.low)
			}
			e.low = utf8.AppendRune(e.low, r)
		case unicode.IsSpace(r):
			if start >= 0 {
				e.spans = append(e.spans, tokSpan{int32(start), int32(len(e.low))})
				start = -1
			}
		default:
			if start >= 0 {
				e.spans = append(e.spans, tokSpan{int32(start), int32(len(e.low))})
				start = -1
			}
			lo := len(e.low)
			e.low = utf8.AppendRune(e.low, r)
			e.spans = append(e.spans, tokSpan{int32(lo), int32(len(e.low))})
		}
	}
	if start >= 0 {
		e.spans = append(e.spans, tokSpan{int32(start), int32(len(e.low))})
	}
}

// tok returns token i's bytes.
func (e *Encoder) tok(i int) []byte {
	sp := e.spans[i]
	return e.low[sp.lo:sp.hi]
}

// features hashes s: word unigrams (weight w), adjacent word bigrams (weight
// w), and character trigrams of each word longer than three bytes (weight
// w/2, capturing subword structure such as model-number fragments).
func (e *Encoder) features(s string, w float64) {
	e.tokenize(s)
	for i := range e.spans {
		t := e.tok(i)
		e.h.addHashed(e.b, fnvAddBytes(fnvAddString(fnvOffset, "u:"), t), w)
		if i > 0 {
			hv := fnvAddBytes(fnvAddString(fnvOffset, "b:"), e.tok(i-1))
			hv = fnvAddString(hv, " ")
			e.h.addHashed(e.b, fnvAddBytes(hv, t), w)
		}
		if len(t) > 3 {
			for j := 0; j+3 <= len(t); j++ {
				e.h.addHashed(e.b, fnvAddBytes(fnvAddString(fnvOffset, "c:"), t[j:j+3]), w/2)
			}
		}
	}
}

// fieldFeatures hashes a (field, value) pair under "f:"+lower(field)+":", so
// the same value in different attributes produces different features (DP
// tasks depend on knowing which attribute a value sits in), then the bare
// tokens at half weight so cross-attribute overlap — the same model number in
// two entities' titles — stays visible.
func (e *Encoder) fieldFeatures(field, value string, w float64) {
	pre := fnvAddString(fnvOffset, "f:")
	pre = fnvAddLower(pre, field)
	pre = fnvAddString(pre, ":")
	e.tokenize(value)
	for i := range e.spans {
		t := e.tok(i)
		e.h.addHashed(e.b, fnvAddBytes(pre, t), w)
		if i > 0 {
			hv := fnvAddBytes(pre, e.tok(i-1))
			hv = fnvAddString(hv, " ")
			e.h.addHashed(e.b, fnvAddBytes(hv, t), w)
		}
	}
	e.features(value, w/2)
}

// isolatedFeatures hashes s under "iso:"+ns+":" with NO bare tokens, so the
// segment cannot spuriously overlap candidate encodings. Knowledge prose uses
// this: the sentence "answer yes when ..." must shift the input
// representation without directly pumping the "yes" candidate's token
// similarity.
func (e *Encoder) isolatedFeatures(ns, s string, w float64) {
	pre := fnvAddString(fnvOffset, "iso:")
	pre = fnvAddString(pre, ns)
	pre = fnvAddString(pre, ":")
	e.tokenize(s)
	for i := range e.spans {
		t := e.tok(i)
		e.h.addHashed(e.b, fnvAddBytes(pre, t), w)
		if i > 0 {
			hv := fnvAddBytes(pre, e.tok(i-1))
			hv = fnvAddString(hv, " ")
			e.h.addHashed(e.b, fnvAddBytes(hv, t), w)
		}
	}
}
