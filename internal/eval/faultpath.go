package eval

import (
	"context"

	"repro/internal/akb"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// searchAKB runs akb.SearchFallible through core.OracleChain over the
// zoo's armed fault spec (nil spec: the plain infallible adapter,
// byte-for-byte the pre-chaos path). Direct search sites (Fig. 7's round
// sweep, the oracle ablation) go through here so an armed fault spec covers
// them the same way it covers full transfers. The chain's seeds are
// content-addressed per cell, so chaos runs reproduce exactly at any
// -workers count.
func (z *Zoo) searchAKB(pred akb.Predictor, g akb.Oracle, kind tasks.Kind, valid, probe []*data.Instance, cfg akb.Config, cellSeed int64, rec *obs.Recorder) *akb.Result {
	return akb.SearchFallible(context.Background(), pred, core.OracleChain(g, z.Faults, cellSeed, rec), kind, valid, probe, cfg)
}
