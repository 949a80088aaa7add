package core

import (
	"repro/internal/akb"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/skc"
)

// Option customizes a KnowTrans under construction (see NewKnowTrans).
// Options replace the three hand-assembled struct shapes the CLI, the
// experiment harness, and the serving layer used to build: every caller now
// states only what it overrides.
type Option func(*KnowTrans)

// WithPlainOracle plugs in the oracle the AKB search consults: an
// infallible in-process one (the simulated GPT of internal/oracle, or a
// test stub) — the only oracle option, since no caller has a fallible
// client of its own. Transfer lifts it into the akb.FallibleOracle seam per
// seed — through the injector/resilience chain when WithFaults armed a
// spec, through the thin akb.AsFallible adapter otherwise.
func WithPlainOracle(o akb.Oracle) Option {
	return func(kt *KnowTrans) { kt.plain = o }
}

// WithFaults arms seeded chaos injection on the oracle path: every Transfer
// runs its AKB search against the plain oracle wrapped in a faults.Injector
// and a resilience.ResilientOracle (see OracleChain). A nil spec is a no-op,
// so callers can pass their possibly-unset configuration straight through.
func WithFaults(spec *faults.Config) Option {
	return func(kt *KnowTrans) { kt.chaosSpec = spec }
}

// WithRecorder threads observability through the pipeline: one root span
// per Transfer, nested SKC/AKB stage spans, and the oracle-chain counters.
// A nil recorder (the default) keeps the pipeline uninstrumented at zero
// cost.
func WithRecorder(rec *obs.Recorder) Option {
	return func(kt *KnowTrans) { kt.Rec = rec }
}

// WithSKC toggles the Selective Knowledge Concentration stage (the Table V
// "w/o SKC" ablation fine-tunes the whole upstream model instead).
func WithSKC(enabled bool) Option {
	return func(kt *KnowTrans) { kt.UseSKC = enabled }
}

// WithAKB toggles the Automatic Knowledge Bridging stage (the Table V
// "w/o AKB" ablation predicts without searched knowledge).
func WithAKB(enabled bool) Option {
	return func(kt *KnowTrans) { kt.UseAKB = enabled }
}

// WithSKCOptions overrides the SKC stage configuration (weight strategy,
// patch budget, ...). Transfer still stamps the per-call seed and recorder.
func WithSKCOptions(opts skc.Options) Option {
	return func(kt *KnowTrans) { kt.SKC = opts }
}
