package fognode

import (
	"math/rand"
	"sync"
	"time"

	"f2c/internal/shard"
)

// UpstreamState labels the delivery state machine's current mode.
type UpstreamState string

const (
	// UpstreamHealthy: the parent link works; batches go straight up.
	UpstreamHealthy UpstreamState = "healthy"
	// UpstreamBackoff: recent parent failures; attempts are gated by
	// a jittered exponential backoff window.
	UpstreamBackoff UpstreamState = "backoff"
	// UpstreamRelay: the parent has failed FailoverAfter consecutive
	// times; batches are relayed through sibling fog nodes while the
	// backoff window periodically re-probes the parent for heal.
	UpstreamRelay UpstreamState = "relay"
)

// upstream is the retry/backoff/failover state machine guarding the
// node's parent link. One per node; all transitions are serialized by
// its mutex, so concurrent flush workers observe a consistent mode.
//
// The lifecycle under an outage: parent send fails -> consecutive
// failures grow a jittered exponential backoff window (base..max) ->
// after FailoverAfter consecutive failures the node enters relay mode
// and hands batches to healthy siblings (which forward them to their
// own parent) -> whenever the backoff window expires the next flush
// re-probes the parent -> a parent success resets everything to
// healthy. With RetryBase zero there is no backoff window, so every
// flush attempts the parent; failures still count, and relay mode
// still engages after FailoverAfter of them.
type upstream struct {
	base     time.Duration
	max      time.Duration
	after    int
	siblings []string

	mu      sync.Mutex
	rng     *rand.Rand
	fails   int
	retryAt time.Time
	relay   bool
	next    int // round-robin start index into siblings
}

func newUpstream(cfg *Config) *upstream {
	// The jitter seed is the node's identity: every sibling gets a
	// distinct jitter stream, or they back off and re-probe a
	// recovering parent in lockstep — the stampede the jitter exists
	// to prevent — and a node's own stream is reproducible run to run.
	return &upstream{
		base:     cfg.RetryBase,
		max:      cfg.RetryMax,
		after:    cfg.FailoverAfter,
		siblings: cfg.Siblings,
		rng:      rand.New(rand.NewSource(int64(shard.FNV32a(cfg.Spec.ID)))),
	}
}

// state reports the current mode.
func (u *upstream) state() UpstreamState {
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case u.relay:
		return UpstreamRelay
	case u.fails > 0:
		return UpstreamBackoff
	default:
		return UpstreamHealthy
	}
}

// parentDue reports whether the next delivery should (re-)probe the
// parent: always when backoff is disabled or the link is healthy,
// otherwise only once the backoff window has expired.
func (u *upstream) parentDue(now time.Time) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.base <= 0 || u.fails == 0 {
		return true
	}
	return !now.Before(u.retryAt)
}

// attemptAllowed reports whether a flush can deliver anything at all
// right now: the parent is due, or relay mode has siblings to carry
// the batches. When false the flush defers — data stays queued and no
// attempt is burned inside the backoff window.
func (u *upstream) attemptAllowed(now time.Time) bool {
	if u.parentDue(now) {
		return true
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.relay && len(u.siblings) > 0
}

// onParentSuccess records a healed (or healthy) parent link.
func (u *upstream) onParentSuccess() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.fails = 0
	u.relay = false
	u.retryAt = time.Time{}
}

// onParentFailure records one failed parent attempt at instant now,
// arms the next backoff window, and switches to relay mode once the
// failover threshold is crossed (and siblings exist).
func (u *upstream) onParentFailure(now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.fails++
	if u.base > 0 {
		u.retryAt = now.Add(u.backoffLocked())
	}
	if u.after > 0 && u.fails >= u.after && len(u.siblings) > 0 {
		u.relay = true
	}
}

// backoffLocked computes the jittered exponential delay for the
// current consecutive-failure count: base doubled per failure, capped
// at max, jittered uniformly over [d/2, d] so synchronized fog nodes
// do not re-probe a recovering parent in lockstep.
func (u *upstream) backoffLocked() time.Duration {
	d := u.base
	for i := 1; i < u.fails && d < u.max; i++ {
		d *= 2
	}
	if d > u.max {
		d = u.max
	}
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(u.rng.Int63n(int64(d-half)+1))
}

// relayTargets returns the siblings to try for this delivery, rotated
// round-robin so one healthy sibling does not absorb every relayed
// batch, or nil when relay mode is off.
func (u *upstream) relayTargets() []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	if !u.relay || len(u.siblings) == 0 {
		return nil
	}
	start := u.next
	u.next = (u.next + 1) % len(u.siblings)
	out := make([]string, 0, len(u.siblings))
	for i := 0; i < len(u.siblings); i++ {
		out = append(out, u.siblings[(start+i)%len(u.siblings)])
	}
	return out
}
