package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// slotSchedule is one node's absolute flush timetable: slot k is due
// at t0 + phase + k*period. The benchmark drives flushes on it instead
// of calling Node.Start, whose cadence restarts after every flush and
// so drifts with flush duration (freshness p50 spread 388-495 ms over
// identical prototype runs; 391/394/397 on the absolute timetable).
type slotSchedule struct {
	t0     time.Time
	phase  time.Duration
	period time.Duration
}

// due returns slot k's instant.
func (s slotSchedule) due(k int) time.Time {
	return s.t0.Add(s.phase + time.Duration(k)*s.period)
}

// after returns the slot following slot k for a flush that finished at
// done, and how many slots the flush overran: a flush still running
// when later slots came due skips them and resumes at the next slot
// not yet in the past, so the timetable never drifts.
func (s slotSchedule) after(k int, done time.Time) (next, skipped int) {
	next = k + 1
	for !s.due(next).After(done) {
		next++
		skipped++
	}
	return next, skipped
}

// flushDriver runs the timetable of every fog node of a city until
// stopped, one goroutine per node.
type flushDriver struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	overruns atomic.Int64
}

// flushTimeout bounds one driven flush. It is deliberately far above
// the slot period: a flush abandoned at the period boundary retries
// while its original send is still running, and both copies pass the
// cloud's replay filter (see README, "Ledger").
const flushTimeout = 5 * time.Second

// startFlushDriver starts the fog1 and fog2 timetables at t0: fog1
// node i at i*p1/n1 + k*p1, fog2 node j at p1/2 + j*p2/n2 + k*p2 (with
// the default 250/500 ms periods on 4/2 nodes that is i*62.5 ms and
// 125 ms + j*250 ms).
func startFlushDriver(c *city, t0 time.Time, p1, p2 time.Duration) *flushDriver {
	d := &flushDriver{stop: make(chan struct{})}
	for i, m := range c.fog1 {
		phase := time.Duration(i) * p1 / time.Duration(len(c.fog1))
		d.run(m, slotSchedule{t0: t0, phase: phase, period: p1})
	}
	for j, m := range c.fog2 {
		phase := p1/2 + time.Duration(j)*p2/time.Duration(len(c.fog2))
		d.run(m, slotSchedule{t0: t0, phase: phase, period: p2})
	}
	return d
}

func (d *flushDriver) run(m *member, s slotSchedule) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for k := 0; ; {
			select {
			case <-d.stop:
				return
			case <-time.After(time.Until(s.due(k))):
			}
			// A failed flush leaves its batches queued for the next
			// slot; what never arrives shows in the ledger.
			_ = m.flush()
			var skipped int
			k, skipped = s.after(k, time.Now())
			d.overruns.Add(int64(skipped))
		}
	}()
}

// halt stops every timetable and waits for in-flight flushes.
func (d *flushDriver) halt() {
	close(d.stop)
	d.wg.Wait()
}

// flush is one driven, timed Node.Flush; in a traced run it is a root
// span and the parent of the sends it causes.
func (m *member) flush() error {
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	if m.tracer == nil {
		return m.node.Flush(ctx)
	}
	id := m.tracer.begin(m.flushSpan, 0)
	m.current.Store(id)
	err := m.node.Flush(ctx)
	m.current.Store(0)
	m.tracer.end(id, 0)
	return err
}
