package obs

import "testing"

// FuzzParseTraceparent: the header every inbound request may carry is
// untrusted bytes. Whatever they are, the parser returns (never panics), and
// what it accepts is a usable span context: non-zero, and stable through
// FormatTraceparent — the value the server echoes and forwards parses back to
// the same context.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"  00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00\n",
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future-field",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-+7ad6b716920333-01",
		"00-0af7651916cd43dd8448eb211c80319c-0x000000000000a1-01",
		"00--b7ad6b7169203331-01",
		"---",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) failed (%v) but returned %+v", s, err, sc)
			}
			return
		}
		if sc.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero context", s)
		}
		canonical := FormatTraceparent(sc)
		back, err := ParseTraceparent(canonical)
		if err != nil || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, which formats as %q and parses back as %+v (%v)", s, sc, canonical, back, err)
		}
	})
}
