package loadgen

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNotLinkedByProduct: the load generator is test tooling. No binary and no
// example may link it, directly or through another package.
func TestNotLinkedByProduct(t *testing.T) {
	const self = "repro/internal/loadgen"
	for _, pkg := range []string{"repro/cmd/knowtrans", "repro/cmd/dpgen", "repro/examples/..."} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		deps := strings.Fields(string(out))
		if len(deps) == 0 {
			t.Fatalf("go list -deps %s listed nothing", pkg)
		}
		for _, dep := range deps {
			if dep == self {
				t.Errorf("%s links %s", pkg, self)
			}
		}
	}
}
