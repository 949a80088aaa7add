package analyze

import (
	"io"
	"strings"
	"testing"

	"repro/internal/obs/profile"
)

// FuzzLoad: a trace file read from disk is untrusted bytes. Whatever they
// are, Load either errors or returns a trace whose Walk visits every span
// exactly once — none lost to a parent cycle, none twice — and every report
// built from it, with its writers, returns instead of panicking.
func FuzzLoad(f *testing.F) {
	for _, s := range []string{
		testTrace(),
		// A parent cycle: neither span reaches a root.
		span(1, 2, "a", 0, 5) + "\n" + span(2, 1, "b", 0, 5) + "\n",
		// A duplicated span id closing a cycle: the second span 1 and span 2
		// name each other, and the first span 1 hangs below them.
		span(1, 1, "a", 0, 1) + "\n" + span(1, 2, "b", 0, 2) + "\n" + span(2, 1, "c", 0, 3) + "\n",
		`{"span":7,"trace":"0af7651916cd43dd8448eb211c80319c","remote":true,"parent":9,"name":"serve.request","start_us":3,"dur_us":9,` +
			`"links":[{"trace":"0af7651916cd43dd8448eb211c80319c","span":7}]}` + "\n" +
			`{"span":8,"kind":"event","trace":"0af7651916cd43dd8448eb211c80319c","parent":7,"name":"x","start_us":4}` + "\n",
		`{"kind":"event","name":"` + profile.EventSample + `","start_us":1000,"attrs":{"goroutines":4,"heap_live_bytes":1e300,"final":true}}` + "\n" +
			`{"kind":"event","name":"` + profile.EventSample + `","start_us":-9223372036854775808,"attrs":{"goroutines":-1}}` + "\n",
		"{garbage\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Load(strings.NewReader(string(b)))
		if err != nil {
			return
		}
		seen := map[*Node]bool{}
		tr.Walk(func(n *Node, _ int) {
			if seen[n] {
				t.Fatalf("walk visits span %d (%s) twice", n.Rec.Span, n.Rec.Name)
			}
			seen[n] = true
		})
		if len(seen) != tr.Spans {
			t.Fatalf("walk visits %d of %d spans", len(seen), tr.Spans)
		}
		_ = NewReport(tr, 3).WriteText(io.Discard)
		_ = NewReport(tr, 0).WriteText(io.Discard)
		_ = NewProfReport(tr).WriteText(io.Discard)
		for _, r := range tr.Records {
			_ = tr.FilterTrace(r.Trace).WriteText(io.Discard)
		}
	})
}
