package faults

import (
	"testing"

	"repro/internal/akb"
)

// FuzzParseSpec: the -faults flag is operator-typed text. Whatever it is, the
// parser returns (never panics), and a spec it accepts is one Wrap takes: a
// rate in [0, 1] and only known kinds.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"rate=0.3,seed=9",
		"rate=0",
		"rate=1,seed=-4,kinds=timeout+empty+malformed",
		"rate=1,seed=-4,kinds=timeout+empty+malformed,latency=5ms",
		" seed=11 , rate=0.5 ,, ",
		"rate=NaN",
		"rate=1e-320",
		"rate=0.5,kinds=",
		"rate=0.5,kinds=timeout+",
		"rate=0.5,latency=-1s",
		"rate=0.5,latency=9999999h",
		"rate=2",
		"seed=3",
		"rate",
		"=",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseSpec(s)
		if err != nil {
			return
		}
		if !(cfg.Rate >= 0 && cfg.Rate <= 1) {
			t.Fatalf("ParseSpec(%q) accepted %+v", s, cfg)
		}
		for _, k := range cfg.Kinds {
			if _, err := parseKind(string(k)); err != nil {
				t.Fatalf("ParseSpec(%q) accepted unknown kind %q", s, k)
			}
		}
		Wrap(akb.Oracle(nil), cfg) // panics on a rate it would not inject at
	})
}
