package eval

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// withFaults arms a fault spec on the shared test zoo for one test and
// restores the unwrapped path afterwards (the zoo caches only models and
// patches, never AKB results, so arming faults cannot poison other tests).
func withFaults(t *testing.T, z *Zoo, cfg *faults.Config) {
	t.Helper()
	prev := z.Faults
	z.Faults = cfg
	t.Cleanup(func() { z.Faults = prev })
}

// TestFaultsRateZeroByteIdentical is the in-process version of the check.sh
// tier-2 chaos gate: arming a rate-0 fault spec threads every AKB search
// through the full injector → resilient-client chain, and the rendered
// table must still be byte-identical to the unwrapped run.
func TestFaultsRateZeroByteIdentical(t *testing.T) {
	z := zooForTest()
	keys := []string{"ED/Flights", "EM/Abt-Buy"}

	plain := runTable6On(z, 1, keys).Render()
	withFaults(t, z, &faults.Config{Rate: 0, Seed: 9})
	wrapped := runTable6On(z, 1, keys).Render()

	if plain != wrapped {
		t.Fatalf("rate-0 fault chain changed the table:\n--- plain ---\n%s--- rate 0 ---\n%s", plain, wrapped)
	}
}

// TestFaultsChaosGridCompletes runs a small grid at a 30% fault rate, in
// parallel, twice: it must complete without panicking and reproduce
// byte-identically — fault schedules are content-addressed per cell, so
// worker interleaving cannot perturb them. The first run carries a recorder:
// the injections must show up in the zoo's metrics, which is how an operator
// tells a chaos run from a healthy one.
func TestFaultsChaosGridCompletes(t *testing.T) {
	z := zooForTest()
	keys := []string{"ED/Flights", "EM/Abt-Buy"}
	withFaults(t, z, &faults.Config{Rate: 0.3, Seed: 9})
	prevRec, prevWorkers := z.Rec, z.Workers
	defer func() { z.Rec, z.Workers = prevRec, prevWorkers }()

	z.Rec, z.Workers = obs.NewRecorder(obs.NewRegistry(), nil), 4
	first := runTable6On(z, 1, keys).Render()
	if first == "" {
		t.Fatal("chaos grid rendered nothing")
	}
	if n := z.Rec.Metrics.Snapshot().Counters["faults.injected"]; n == 0 {
		t.Fatal("30% fault rate recorded no faults.injected")
	}
	z.Rec, z.Workers = nil, 1
	second := runTable6On(z, 1, keys).Render()
	if first != second {
		t.Fatalf("chaos grid not reproducible across worker counts:\n--- 4 workers ---\n%s--- serial ---\n%s", first, second)
	}
}
