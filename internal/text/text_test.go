package text

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello World", []string{"hello", "world"}},
		{"ABV: 0.05%", []string{"abv", ":", "0", ".", "05", "%"}},
		{"model-X100", []string{"model", "-", "x100"}},
		{"", nil},
		{"   ", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestTokenizeCaseInsensitive(t *testing.T) {
	// Restricted to ASCII: Unicode case mapping is not an involution
	// (ϵ → Ε → ε), so the general property does not hold by design.
	f := func(raw []byte) bool {
		bs := make([]byte, len(raw))
		for i, c := range raw {
			bs[i] = c & 0x7f
		}
		s := string(bs)
		a := Tokenize(s)
		b := Tokenize(strings.ToUpper(s))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewHasherRejectsBadDim(t *testing.T) {
	for _, dim := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHasher(%d) should panic", dim)
				}
			}()
			NewHasher(dim)
		}()
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := NewEncoder(NewHasher(1 << 10))
	a := e.Encode([]Segment{{Text: "the quick brown fox", Weight: 1}})
	b := e.Encode([]Segment{{Text: "the quick brown fox", Weight: 1}})
	if len(a.Idx) != len(b.Idx) {
		t.Fatal("same text must produce same encoding")
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			t.Fatal("same text must produce same encoding")
		}
	}
}

func TestEncodeNormalized(t *testing.T) {
	e := NewEncoder(NewHasher(1 << 10))
	v := e.Encode([]Segment{{Text: "some record with several attribute values", Weight: 3}})
	if math.Abs(v.Norm()-1) > 1e-9 {
		t.Fatalf("encoded norm = %v, want 1", v.Norm())
	}
}

func TestEncodeIndicesInRange(t *testing.T) {
	e := NewEncoder(NewHasher(1 << 8))
	f := func(s string) bool {
		v := e.Encode([]Segment{{Text: s, Weight: 1}})
		for _, idx := range v.Idx {
			if idx < 0 || idx >= 1<<8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Similar texts should have higher cosine similarity than unrelated texts —
// the property the dual encoder relies on.
func TestEncodeSimilarity(t *testing.T) {
	e := NewEncoder(NewHasher(DefaultDim))
	a := e.Encode([]Segment{{Text: "apple iphone 12 pro max 256gb silver", Weight: 1}})
	b := e.Encode([]Segment{{Text: "apple iphone 12 pro 256 gb silver smartphone", Weight: 1}})
	c := e.Encode([]Segment{{Text: "craft beer ipa hoppy bitterness 65 ibu", Weight: 1}})
	simAB := a.Dot(b)
	simAC := a.Dot(c)
	if simAB <= simAC {
		t.Fatalf("similar texts cosine %v should exceed unrelated %v", simAB, simAC)
	}
	if simAB < 0.3 {
		t.Fatalf("near-duplicate similarity too low: %v", simAB)
	}
}

func TestFieldFeaturesDistinguishAttributes(t *testing.T) {
	e := NewEncoder(NewHasher(DefaultDim))
	a := e.Encode([]Segment{{Field: "city", Text: "springfield", Weight: 1}})
	b := e.Encode([]Segment{{Field: "name", Text: "springfield", Weight: 1}})
	// Shared bare-token features give some overlap but not identity.
	if sim := a.Dot(b); sim > 0.99 {
		t.Fatalf("different fields should encode differently, cosine = %v", sim)
	}
}

func TestCountTokens(t *testing.T) {
	if got := CountTokens(""); got != 0 {
		t.Fatalf("empty = %d tokens", got)
	}
	if got := CountTokens("hello world"); got != 2 {
		t.Fatalf("two words = %d tokens", got)
	}
	// Long words get extra subword tokens.
	long := CountTokens("internationalization")
	if long < 2 {
		t.Fatalf("long word should count as multiple tokens, got %d", long)
	}
	// Monotone in concatenation.
	a, b := "schema matching of columns", "with descriptions"
	if CountTokens(a+" "+b) != CountTokens(a)+CountTokens(b) {
		t.Fatalf("token count should be additive over whitespace concatenation")
	}
}

func TestEmptyEncode(t *testing.T) {
	e := NewEncoder(NewHasher(1 << 10))
	v := e.Encode([]Segment{{Text: "", Weight: 1}})
	if len(v.Idx) != 0 {
		t.Fatalf("empty text should produce empty vector, nnz=%d", len(v.Idx))
	}
	if v.Norm() != 0 {
		t.Fatalf("empty vector norm = %v", v.Norm())
	}
}
