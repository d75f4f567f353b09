// Package sched is the node-level admission scheduler of the F2C
// hierarchy: a weighted-fair queue across the wire traffic classes
// (ingest, query, relay) with optional token-bucket rate limits per
// class, gating each node's handler path.
//
// The tcpnet transport already isolates the classes on the wire — own
// connections, own flow-control windows — but socket isolation only
// decides who gets bytes onto the link, not whose work the node does
// first. Under a city-scale ingest burst the scarce resource is the
// node itself: CPU for decode/dedup/describe, shard locks, store
// appends. The scheduler arbitrates that resource by admission:
// every message handled by a node first acquires a grant, grants are
// bounded (Concurrency), and when demand exceeds supply the backlog
// drains by stride scheduling — each class consumes capacity in
// proportion to its weight, so a query never waits behind an unbounded
// ingest backlog.
//
// Admission cost is the message's payload size in bytes, so "share"
// means bytes of handler work, and a class full of small latency-
// sensitive requests (queries) naturally outruns a class of bulk
// batches even at equal weight. Blocking is the backpressure
// mechanism: a held grant keeps the transport's per-class dispatch
// slot busy, the peer's flow-control window fills, and the sender's
// flush machinery defers — no new error path needed. Only when a
// class's waiter queue itself overflows does Admit fail fast with a
// typed overload rejection, so a melting node sheds admission work in
// O(1) instead of queueing unboundedly.
package sched

import (
	"context"
	"errors"
	"sync"
	"time"

	"f2c/internal/metrics"
	"f2c/internal/sim"
)

// ErrOverloaded is returned by Admit when the class's waiter queue is
// full — the node is overloaded and the caller should reject rather
// than buffer. The message matches transport.ErrOverloaded so the
// rejection stays recognizable after a round-trip through a remote
// error reply.
var ErrOverloaded = errors.New("sched: admission queue full: node overloaded")

// ClassOptions tunes one traffic class.
type ClassOptions struct {
	// Weight is the class's relative share of handler capacity under
	// contention (default 1). Shares are in admission-cost units
	// (payload bytes), so weight 4 means "may consume 4x the bytes of
	// a weight-1 class while both are backlogged".
	Weight int
	// Rate, when > 0, rate-limits the class with a token bucket
	// refilling Rate cost units (payload bytes) per second. Admissions
	// beyond the rate wait for tokens; zero disables the limit.
	Rate float64
	// Burst is the bucket capacity (default max(Rate, 1)): how much
	// the class may burst above the sustained rate.
	Burst float64
	// QueueLimit bounds how many admissions may wait on the class
	// (default 256); beyond it Admit rejects with ErrOverloaded.
	QueueLimit int
}

// Options configures a Scheduler.
type Options struct {
	// Classes maps class names (transport.ClassNameOf) to their
	// tuning. Classes not listed get weight 1, no rate limit.
	Classes map[string]ClassOptions
	// Concurrency bounds how many admissions may hold a grant at once
	// (default 4) — the node's handler parallelism under overload.
	Concurrency int
}

// DefaultOptions returns the preset class mix: queries weighted 8x and
// relays 4x over bulk ingest, no rate limits. Under a saturating
// ingest burst the read path keeps 8/13 of the node's admission
// capacity — latency-sensitive traffic never starves.
func DefaultOptions() Options {
	return Options{
		Classes: map[string]ClassOptions{
			"ingest": {Weight: 1},
			"query":  {Weight: 8},
			"relay":  {Weight: 4},
		},
	}
}

// TokenBucket is a deterministic token bucket: refills are computed
// from the clock instants the caller passes in, so virtual-clock tests
// replay exactly.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a bucket refilling rate tokens/second with the
// given capacity (capacity < rate is raised to max(rate, 1)). The
// bucket starts full at the given instant.
func NewTokenBucket(rate, burst float64, now time.Time) *TokenBucket {
	if burst < 1 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// Refill advances the bucket to the given instant.
func (b *TokenBucket) Refill(now time.Time) {
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Has reports whether cost tokens are available. Costs above the
// bucket capacity are granted at full capacity, so one oversized
// admission cannot jam the class forever.
func (b *TokenBucket) Has(cost float64) bool {
	if cost > b.burst {
		cost = b.burst
	}
	return b.tokens >= cost
}

// Take refills to now and consumes cost tokens if available (capped at
// the bucket capacity), reporting whether it did.
func (b *TokenBucket) Take(now time.Time, cost float64) bool {
	b.Refill(now)
	if !b.Has(cost) {
		return false
	}
	if cost > b.burst {
		cost = b.burst
	}
	b.tokens -= cost
	return true
}

// WaitFor returns how long until cost tokens will be available at the
// sustained rate (zero when they already are).
func (b *TokenBucket) WaitFor(cost float64) time.Duration {
	if cost > b.burst {
		cost = b.burst
	}
	deficit := cost - b.tokens
	if deficit <= 0 {
		return 0
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}

// waiter is one blocked admission.
type waiter struct {
	ready   chan struct{}
	cost    float64
	since   time.Time
	granted bool
}

// classState is one class's queue, stride pass and bucket.
type classState struct {
	name    string
	weight  float64
	limit   int
	bucket  *TokenBucket // nil = unlimited
	waiters []*waiter
	pass    float64 // stride virtual time: grows by cost/weight per grant

	admitted *metrics.Counter
	rejected *metrics.Counter
	queued   *metrics.Gauge
	wait     *metrics.Histogram
}

// Scheduler is a weighted-fair admission gate. Safe for concurrent
// use.
type Scheduler struct {
	mu       sync.Mutex
	opts     Options
	clock    sim.Clock
	classes  map[string]*classState
	reg      *metrics.Registry
	prefix   string
	inflight int
	vfloor   float64 // pass of the last grant: joining classes start here
	inflt    *metrics.Gauge
	timer    *time.Timer // wall-clock pump for token waits
}

// New builds a scheduler. The clock drives token-bucket refills
// (virtual in tests); the registry receives per-class gauges and
// counters under prefix (e.g. "fog1/d01-s01.sched.").
func New(opts Options, clock sim.Clock, reg *metrics.Registry, prefix string) *Scheduler {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 4
	}
	if clock == nil {
		clock = sim.WallClock{}
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Scheduler{
		opts:    opts,
		clock:   clock,
		classes: make(map[string]*classState),
		reg:     reg,
		prefix:  prefix,
		inflt:   reg.Gauge(prefix + "inflight"),
	}
	for name := range opts.Classes {
		s.class(name)
	}
	return s
}

// class returns (creating on first use) a class's state.
func (s *Scheduler) class(name string) *classState {
	cs, ok := s.classes[name]
	if ok {
		return cs
	}
	co := s.opts.Classes[name]
	if co.Weight <= 0 {
		co.Weight = 1
	}
	if co.QueueLimit <= 0 {
		co.QueueLimit = 256
	}
	cs = &classState{
		name:     name,
		weight:   float64(co.Weight),
		limit:    co.QueueLimit,
		admitted: s.reg.Counter(s.prefix + name + ".admitted"),
		rejected: s.reg.Counter(s.prefix + name + ".rejected"),
		queued:   s.reg.Gauge(s.prefix + name + ".queued"),
		wait:     s.reg.Histogram(s.prefix + name + ".wait"),
	}
	if co.Rate > 0 {
		cs.bucket = NewTokenBucket(co.Rate, co.Burst, s.clock.Now())
	}
	s.classes[name] = cs
	return cs
}

// Admit blocks until the scheduler grants the admission (or the
// context ends) and returns the release function the caller must
// invoke when the handler work is done. Cost is the admission's share
// charge — payload bytes (values < 1 are raised to 1). When the
// class's waiter queue is full, Admit fails fast with ErrOverloaded.
func (s *Scheduler) Admit(ctx context.Context, class string, cost int64) (func(), error) {
	if cost < 1 {
		cost = 1
	}
	now := s.clock.Now()
	s.mu.Lock()
	cs := s.class(class)
	if len(cs.waiters) >= cs.limit {
		cs.rejected.Inc()
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	w := &waiter{ready: make(chan struct{}), cost: float64(cost), since: now}
	cs.waiters = append(cs.waiters, w)
	cs.queued.Set(int64(len(cs.waiters)))
	s.dispatchLocked(now)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return s.releaseFunc(), nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; honor it — the caller
			// decides whether to still do the work.
			s.mu.Unlock()
			return s.releaseFunc(), nil
		}
		for i, q := range cs.waiters {
			if q == w {
				cs.waiters = append(cs.waiters[:i], cs.waiters[i+1:]...)
				break
			}
		}
		cs.queued.Set(int64(len(cs.waiters)))
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseFunc returns the idempotent grant release.
func (s *Scheduler) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.inflight--
			s.inflt.Set(int64(s.inflight))
			s.dispatchLocked(s.clock.Now())
			s.mu.Unlock()
		})
	}
}

// dispatchLocked grants free slots to the backlogged class with the
// smallest stride pass (ties broken by name for determinism), skipping
// classes whose token bucket is dry. When every backlogged class is
// waiting on tokens, a wall-clock pump is armed for the earliest
// refill. Caller holds s.mu.
func (s *Scheduler) dispatchLocked(now time.Time) {
	for s.inflight < s.opts.Concurrency {
		var best *classState
		minWait := time.Duration(-1)
		for _, cs := range s.classes {
			if len(cs.waiters) == 0 {
				continue
			}
			if cs.bucket != nil {
				cs.bucket.Refill(now)
				if !cs.bucket.Has(cs.waiters[0].cost) {
					if w := cs.bucket.WaitFor(cs.waiters[0].cost); minWait < 0 || w < minWait {
						minWait = w
					}
					continue
				}
			}
			if best == nil || cs.pass < best.pass || (cs.pass == best.pass && cs.name < best.name) {
				best = cs
			}
		}
		if best == nil {
			if minWait >= 0 {
				s.pumpAfterLocked(minWait)
			}
			return
		}
		w := best.waiters[0]
		best.waiters = best.waiters[1:]
		best.queued.Set(int64(len(best.waiters)))
		if best.bucket != nil {
			best.bucket.Take(now, w.cost)
		}
		// Stride accounting: a joining class starts at the grant floor
		// so an idle class cannot bank credit and monopolize later.
		if best.pass < s.vfloor {
			best.pass = s.vfloor
		}
		best.pass += w.cost / best.weight
		s.vfloor = best.pass - w.cost/best.weight
		s.inflight++
		s.inflt.Set(int64(s.inflight))
		best.admitted.Inc()
		best.wait.Observe(now.Sub(w.since))
		w.granted = true
		close(w.ready)
	}
}

// pumpAfterLocked (re)arms the token-wait pump. The wait is computed
// from the bucket's sustained rate; the pump just re-runs dispatch, so
// firing early or late is harmless. Caller holds s.mu.
func (s *Scheduler) pumpAfterLocked(wait time.Duration) {
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timer = time.AfterFunc(wait, func() {
		s.mu.Lock()
		s.dispatchLocked(s.clock.Now())
		s.mu.Unlock()
	})
}

// Inflight reports how many grants are currently held.
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}
