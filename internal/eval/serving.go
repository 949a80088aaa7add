package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/lora"
)

// ErrUnknownDataset marks a downstream-dataset key the zoo does not serve;
// the HTTP layer maps it to 404.
var ErrUnknownDataset = errors.New("eval: unknown downstream dataset")

// TransferDataset adapts the tier's upstream DP-LLM to one downstream
// dataset by key: the entry point the serving layer's adapter registry
// builds cold adapters through (`internal/serve`). It runs the same
// KnowTrans pipeline as the experiment grid — upstream backbone, patch
// library, adaptive fusion, the simulated oracle behind the zoo's fault
// chain — seeded entirely from (Zoo.Seed, key), so repeated transfers of
// one key produce byte-identical adapters — and the predictions `knowtrans
// transfer` scores at the same seed: its KnowTransMethod is built by the same
// Zoo.knowTrans, over a trained zoo or one LoadArtifacts filled.
func (z *Zoo) TransferDataset(ctx context.Context, key string, size Size) (*core.Adapted, error) {
	b, ok := z.FindDownstream(key)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, key)
	}
	fewshot := b.DS.FewShot(rand.New(rand.NewSource(z.Seed)), FewShotN)
	kt := z.knowTrans(z.Upstream(size), size, z.Seed, z.Rec, true, true, lora.StrategyAdaptive)
	return kt.Transfer(ctx, b.Kind, fewshot, z.Seed)
}
