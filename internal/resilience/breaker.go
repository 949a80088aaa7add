package resilience

import "sync"

// Fixed breaker policy, shared by both callers (neither ever chose another).
const (
	breakerThreshold = 5 // consecutive failures that trip a closed breaker open
	breakerProbes    = 2 // consecutive half-open successes that close it; any probe failure reopens it
)

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// Cooldown is how many calls the open breaker counts off before letting
	// one through as a half-open probe: the first Cooldown-1 are rejected,
	// the next is the probe (3 for the oracle, 8 per router backend).
	// Cooling down by call count instead of wall time keeps seeded runs
	// deterministic at any speed.
	Cooldown int
	// OnState, when non-nil, observes every state change. OnTrip, when
	// non-nil, fires on each closed/half-open → open transition. Both are
	// invoked with the breaker's lock held and must not call back into it.
	OnState func(State)
	OnTrip  func()
}

// Breaker is a three-state circuit breaker (closed → open on consecutive
// failures → half-open probes → closed). ResilientOracle runs one per AKB
// search and cluster.Router one per backend. Callers bracket each
// protected call with Allow / Success-or-Failure. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecFails int
	cooldown    int // rejected calls remaining before half-open
	probesLeft  int // successes remaining to close from half-open
}

// NewBreaker returns a closed breaker with the given config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg}
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow gates one call. It returns ErrBreakerOpen while the breaker is
// cooling down; once the cooldown is spent the next call is admitted as a
// half-open probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateOpen {
		return nil
	}
	b.cooldown--
	if b.cooldown > 0 {
		return ErrBreakerOpen
	}
	// Cooled down: let this call through as a half-open probe.
	b.setState(StateHalfOpen)
	b.probesLeft = breakerProbes
	return nil
}

// Success records a successful call, resetting the failure run and
// closing the breaker once enough half-open probes have succeeded.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	if b.state == StateHalfOpen {
		b.probesLeft--
		if b.probesLeft <= 0 {
			b.setState(StateClosed)
		}
	}
}

// Failure records a failed call. A failed half-open probe reopens the
// breaker immediately; breakerThreshold consecutive failures trip it from
// closed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	switch {
	case b.state == StateHalfOpen:
		b.trip()
	case b.state == StateClosed && b.consecFails >= breakerThreshold:
		b.trip()
	}
}

// trip opens the breaker and arms the cooldown (callers hold b.mu).
func (b *Breaker) trip() {
	b.setState(StateOpen)
	b.cooldown = b.cfg.Cooldown
	if b.cfg.OnTrip != nil {
		b.cfg.OnTrip()
	}
}

// setState records a state change (callers hold b.mu).
func (b *Breaker) setState(s State) {
	if b.state == s {
		return
	}
	b.state = s
	if b.cfg.OnState != nil {
		b.cfg.OnState(s)
	}
}
