package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/data"
)

// Resolver is the key→adapter resolution seam the HTTP layer runs on. The
// local Registry implements it by building and caching adapters in-process;
// internal/cluster's Router implements it by consistent-hashing the key
// onto remote backends. Server does not care which it fronts — local and
// remote resolution are one code path.
type Resolver interface {
	// Predict answers one instance under key, reporting whether the call
	// found the adapter cold (waited on a Transfer, its own or coalesced).
	Predict(ctx context.Context, key string, in *data.Instance) (string, bool, error)
	// Warm triggers adaptation for key without a prediction.
	Warm(ctx context.Context, key string) (bool, error)
	// Snapshot returns per-key stats, sorted by key.
	Snapshot() []KeyStats
	// Resident counts adapters resident right now.
	Resident() int
	// Evict drops key's resident adapter on demand (DELETE
	// /v1/adapters/{key}): the local Registry drops the entry and retires
	// its per-key gauges (as an LRU eviction would); the cluster router fans
	// the eviction to the key's owners. It reports whether anything was
	// resident; a key the resolver has never seen is ErrUnknownKey.
	Evict(ctx context.Context, key string) (bool, error)
}

// ReadyChecker is optionally implemented by resolvers with a notion of
// downstream readiness. /readyz consults it: the cluster router, for
// instance, is not ready until at least one backend is healthy.
type ReadyChecker interface {
	Ready() error
}

// Sentinel errors of the serving tier beyond ErrUnknownKey (registry.go).
// statusFor maps them: ErrBadKey → 400, ErrOverloaded → 429 (+Retry-After),
// ErrDraining → 503 (+Retry-After).
var (
	// ErrBadKey marks a syntactically invalid adapter key — the request
	// can never succeed anywhere, so routers must not retry it.
	ErrBadKey = errors.New("serve: invalid adapter key")
	// ErrOverloaded is returned when the server sheds load past its
	// inflight bound; the request may succeed on retry or on a replica.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDraining is returned while the server drains for shutdown.
	ErrDraining = errors.New("serve: draining")
)

// ValidateKey checks the "task/dataset" shape of an adapter key without
// consulting any registry: both halves non-empty, exactly one slash. It is
// the shared admission check of router and backend, so a malformed key is
// a 400 at whichever tier sees it first.
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty", ErrBadKey)
	}
	task, dataset, ok := strings.Cut(key, "/")
	if !ok || task == "" || dataset == "" || strings.Contains(dataset, "/") {
		return fmt.Errorf("%w: %q (want task/dataset)", ErrBadKey, key)
	}
	return nil
}
