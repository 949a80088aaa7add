package tasks

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzNumberScreen: isFloat's screen turns away only strings ParseFloat
// refuses, so isFloat and ParseFloat agree on every input.
func FuzzNumberScreen(f *testing.F) {
	for _, s := range []string{
		"", "0", "-1.5", "+.5", "5.", ".", "1e9", "1E-9", "1e+", "0x1p-2", "0X1.8P3", "0x_1p0",
		"1_000", "1__0", "Inf", "-inf", "+Infinity", "infinity", "NaN", "nan", "-NaN", "nAn",
		"5.2%", "abc", "face", "1,000", " 1", "1 ", "١", "1e1000", "0x", "12:30",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, err := strconv.ParseFloat(s, 64)
		if got := isFloat(s); got != (err == nil) {
			t.Fatalf("isFloat(%q) = %v, ParseFloat error %v", s, got, err)
		}
	})
}

// TestLoweringScreensMatchToLower: IsMissingValue and isTimeAMPM, which
// lower without allocating where they can, answer as their strings.ToLower
// forms do — on markers in every case, non-ASCII runes that lower to ASCII
// letters, and random strings over an alphabet rich in the markers' letters.
func TestLoweringScreensMatchToLower(t *testing.T) {
	missing := func(v string) bool {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "", "nan", "n/a", "na", "null", "none", "missing", "-":
			return true
		}
		return false
	}
	ampm := func(v string) bool {
		lv := strings.ToLower(v)
		if !strings.Contains(lv, "a.m.") && !strings.Contains(lv, "p.m.") {
			return false
		}
		colon := strings.Index(lv, ":")
		if colon <= 0 || colon+2 >= len(lv) {
			return false
		}
		return atoiOK(strings.TrimSpace(lv[:colon])) && lv[colon+1] >= '0' && lv[colon+1] <= '9'
	}
	check := func(v string) {
		t.Helper()
		if got, want := IsMissingValue(v), missing(v); got != want {
			t.Fatalf("IsMissingValue(%q) = %v, want %v", v, got, want)
		}
		if got, want := isTimeAMPM(v), ampm(v); got != want {
			t.Fatalf("isTimeAMPM(%q) = %v, want %v", v, got, want)
		}
	}
	for _, v := range []string{
		"", " ", "NaN", " N/A ", "NULL", "None", "MISSING", "missing!", "-", "--",
		"M\u0130SS\u0130NG", "n\u0130l", "N\u212AA", "10:30 A.M.", "10:30 p.m.", "9:05 P.M", "x:1 a.m.",
		"10:30 а.m.", "Ｍissing", "\xffmissing",
	} {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("aAmMpP.:01 -/nNiIsSgGlLoOeEuU\u0130\u212Aé")
	for i := 0; i < 20000; i++ {
		r := make([]rune, rng.Intn(12))
		for j := range r {
			r[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(r))
	}
	// isTimeAMPM's pre-screen rests on this: no non-ASCII rune lowers to an
	// ASCII point or m (the only ones that lower to ASCII at all are the
	// Kelvin sign and dotted capital I).
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); l < 0x80 && r != '\u212A' && r != '\u0130' {
			t.Fatalf("%U lowers to ASCII %q", r, l)
		}
	}
}
