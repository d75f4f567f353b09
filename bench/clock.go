package main

import (
	"sync/atomic"
	"time"

	"f2c/internal/sim"
)

// offsetClock is the bench-owned sim.Clock: frozen at an instant the
// preload steps one simulated minute per round, then pinned to wall
// time (wall + a constant offset) for the measured window. History
// has to be preloaded under a clock that moves with it: back-dated
// batches sent under the wall clock are rejected by the quality
// phase's freshness rule.
//
// Lock-free, because every node reads it on the ingest hot path.
type offsetClock struct {
	frozen atomic.Int64 // unix nanos while frozen; 0 once pinned
	offset atomic.Int64 // nanos added to wall time once pinned
}

var _ sim.Clock = (*offsetClock)(nil)

// newOffsetClock returns a clock frozen at the given instant.
func newOffsetClock(at time.Time) *offsetClock {
	c := &offsetClock{}
	c.frozen.Store(at.UnixNano())
	return c
}

// Now implements sim.Clock.
func (c *offsetClock) Now() time.Time {
	if f := c.frozen.Load(); f != 0 {
		return time.Unix(0, f)
	}
	return time.Now().Add(time.Duration(c.offset.Load()))
}

// Step advances a frozen clock by d; a pinned clock ignores it.
func (c *offsetClock) Step(d time.Duration) {
	if f := c.frozen.Load(); f != 0 {
		c.frozen.Store(f + int64(d))
	}
}

// Pin releases the clock to run with wall time, continuing from the
// frozen instant, and returns that instant (the query windows' T0).
func (c *offsetClock) Pin() time.Time {
	f := c.frozen.Load()
	if f == 0 {
		return c.Now()
	}
	at := time.Unix(0, f)
	c.offset.Store(int64(at.Sub(time.Now())))
	c.frozen.Store(0)
	return at
}
