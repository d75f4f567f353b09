package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run when the engine was stopped explicitly
// before the event horizon was reached.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a unit of simulated work executed at a virtual instant. The
// handler may schedule further events.
type Event struct {
	// At is the virtual execution time.
	At time.Time
	// Name labels the event for tracing.
	Name string
	// Fn is the handler. It runs on the engine goroutine.
	Fn func(now time.Time)

	seq int // tie-break: FIFO among events at the same instant
}

// eventQueue is a min-heap ordered by (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].At.Equal(q[j].At) {
		return q[i].At.Before(q[j].At)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*Event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulation engine bound
// to a VirtualClock. It is intentionally not safe for concurrent
// scheduling from outside event handlers: determinism is the point.
type Engine struct {
	clock   *VirtualClock
	queue   eventQueue
	nextSeq int
	stopped bool

	// Processed counts executed events.
	Processed int
}

// NewEngine creates an engine with its own virtual clock starting at
// epoch.
func NewEngine(epoch time.Time) *Engine {
	return &Engine{clock: NewVirtualClock(epoch)}
}

// NewEngineOn creates an engine driving an existing virtual clock, so
// simulated components observing that clock see event time advance.
func NewEngineOn(clock *VirtualClock) *Engine {
	return &Engine{clock: clock}
}

// Clock exposes the engine's virtual clock.
func (e *Engine) Clock() *VirtualClock { return e.clock }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Schedule enqueues fn to run at the absolute virtual instant at.
// Events scheduled in the past run at the current instant (time never
// rewinds). Returns an error if the engine was stopped.
func (e *Engine) Schedule(at time.Time, name string, fn func(now time.Time)) error {
	if e.stopped {
		return ErrStopped
	}
	if fn == nil {
		return fmt.Errorf("sim: schedule %q: nil handler", name)
	}
	if at.Before(e.clock.Now()) {
		at = e.clock.Now()
	}
	ev := &Event{At: at, Name: name, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return nil
}

// ScheduleEvery enqueues fn to run periodically starting at first and
// then every interval, until (and excluding) the horizon. Each firing
// self-reschedules, so stopping the engine stops the series.
func (e *Engine) ScheduleEvery(first time.Time, interval time.Duration, horizon time.Time, name string, fn func(now time.Time)) error {
	if interval <= 0 {
		return fmt.Errorf("sim: schedule-every %q: non-positive interval %v", name, interval)
	}
	var tick func(now time.Time)
	tick = func(now time.Time) {
		fn(now)
		next := now.Add(interval)
		if next.Before(horizon) {
			// Re-scheduling can only fail after Stop, which is fine
			// to ignore: the series ends with the run.
			_ = e.Schedule(next, name, tick)
		}
	}
	if first.Before(horizon) {
		return e.Schedule(first, name, tick)
	}
	return nil
}

// Stop prevents further scheduling and makes Run return ErrStopped
// after the current event. Intended to be called from inside an event
// handler.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains or the
// virtual clock would pass the horizon. Events exactly at the horizon
// are not executed, mirroring a half-open [epoch, horizon) day window.
func (e *Engine) Run(horizon time.Time) error {
	for e.queue.Len() > 0 {
		if e.stopped {
			return ErrStopped
		}
		next := e.queue[0]
		if !next.At.Before(horizon) {
			return nil
		}
		heap.Pop(&e.queue)
		e.clock.AdvanceTo(next.At)
		next.Fn(e.clock.Now())
		e.Processed++
	}
	return nil
}
