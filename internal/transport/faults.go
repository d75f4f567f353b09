package transport

import (
	"sort"
	"sync"
	"time"

	"f2c/internal/sim"
)

// FaultOp enumerates the fault-plane actions a SimNetwork can apply,
// either immediately (the direct methods below) or at a scheduled
// simulated instant (ScheduleFaults).
type FaultOp int

const (
	// FaultPartition severs the directed link A -> B: sends fail with
	// ErrPartitioned. Partition both directions for a full cut.
	FaultPartition FaultOp = iota + 1
	// FaultHeal removes the directed partition A -> B.
	FaultHeal
	// FaultCrash takes node A down: every message to or from it fails
	// with ErrNodeDown until FaultRestart.
	FaultCrash
	// FaultRestart brings node A back.
	FaultRestart
	// FaultLatency adds Extra one-way latency to the directed link
	// A -> B (a congestion spike); Extra = 0 clears it.
	FaultLatency
	// FaultReplyLoss sets the probability Prob that the reply on the
	// directed link A -> B is lost AFTER the handler ran — the sender
	// sees an error although the receiver processed the message, the
	// failure mode that makes at-least-once delivery produce
	// duplicates. Prob = 0 clears it.
	FaultReplyLoss
	// FaultHealAll clears every partition, crash, latency spike and
	// reply-loss rule at once (end-of-outage convergence).
	FaultHealAll
)

// String implements fmt.Stringer.
func (op FaultOp) String() string {
	switch op {
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	case FaultLatency:
		return "latency"
	case FaultReplyLoss:
		return "reply-loss"
	case FaultHealAll:
		return "heal-all"
	default:
		return "fault(?)"
	}
}

// FaultEvent is one scheduled fault: at simulated instant At, apply Op
// to the directed pair (A, B). B, Extra and Prob are read only by the
// ops that need them.
type FaultEvent struct {
	At    time.Time
	Op    FaultOp
	A, B  string
	Extra time.Duration
	Prob  float64
}

// faultPlane holds the injected-failure state of a SimNetwork and the
// pending scheduled events. A nil *faultPlane (fault injection never
// configured) is inert: every check returns the healthy answer.
type faultPlane struct {
	mu          sync.Mutex
	clock       sim.Clock
	partitioned map[[2]string]bool
	crashed     map[string]bool
	extra       map[[2]string]time.Duration
	replyLoss   map[[2]string]float64
	// schedule is sorted by At; next indexes the first unapplied event.
	schedule []FaultEvent
	next     int
}

func (n *SimNetwork) plane() *faultPlane {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.faults == nil {
		n.faults = &faultPlane{
			partitioned: make(map[[2]string]bool),
			crashed:     make(map[string]bool),
			extra:       make(map[[2]string]time.Duration),
			replyLoss:   make(map[[2]string]float64),
		}
	}
	return n.faults
}

// WithFaultClock attaches the clock that drives scheduled fault
// events: on every Send, events whose At is not after clock.Now() are
// applied first. Without a clock, ScheduleFaults applies events only
// through PumpFaults.
func WithFaultClock(c sim.Clock) SimOption {
	return func(n *SimNetwork) { n.plane().clock = c }
}

// ScheduleFaults appends events to the fault schedule (kept sorted by
// At; order of equal instants is preserved). Safe to call while
// traffic is flowing.
func (n *SimNetwork) ScheduleFaults(events []FaultEvent) {
	p := n.plane()
	p.mu.Lock()
	defer p.mu.Unlock()
	pending := append(p.schedule[p.next:len(p.schedule):len(p.schedule)], events...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].At.Before(pending[j].At) })
	p.schedule = pending
	p.next = 0
}

// PumpFaults applies every scheduled event with At <= now. Senders do
// this implicitly when a fault clock is attached; harnesses may pump
// explicitly between ticks so faults land even on quiet links.
func (n *SimNetwork) PumpFaults(now time.Time) {
	p := n.plane()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pumpLocked(now)
}

func (p *faultPlane) pumpLocked(now time.Time) {
	for p.next < len(p.schedule) && !p.schedule[p.next].At.After(now) {
		p.applyLocked(p.schedule[p.next])
		p.next++
	}
}

func (p *faultPlane) applyLocked(ev FaultEvent) {
	switch ev.Op {
	case FaultPartition:
		p.partitioned[[2]string{ev.A, ev.B}] = true
	case FaultHeal:
		delete(p.partitioned, [2]string{ev.A, ev.B})
	case FaultCrash:
		p.crashed[ev.A] = true
	case FaultRestart:
		delete(p.crashed, ev.A)
	case FaultLatency:
		if ev.Extra <= 0 {
			delete(p.extra, [2]string{ev.A, ev.B})
		} else {
			p.extra[[2]string{ev.A, ev.B}] = ev.Extra
		}
	case FaultReplyLoss:
		if ev.Prob <= 0 {
			delete(p.replyLoss, [2]string{ev.A, ev.B})
		} else {
			p.replyLoss[[2]string{ev.A, ev.B}] = ev.Prob
		}
	case FaultHealAll:
		clear(p.partitioned)
		clear(p.crashed)
		clear(p.extra)
		clear(p.replyLoss)
	}
}

// Apply applies one fault event immediately, bypassing the schedule.
func (n *SimNetwork) Apply(ev FaultEvent) {
	p := n.plane()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyLocked(ev)
}

// Partition severs the directed link from -> to. Kept for tests:
// query's TestRangeFanoutSkipsPartitionedSibling calls it.
func (n *SimNetwork) Partition(from, to string) {
	n.Apply(FaultEvent{Op: FaultPartition, A: from, B: to})
}

// HealAll clears every injected fault at once.
func (n *SimNetwork) HealAll() {
	n.Apply(FaultEvent{Op: FaultHealAll})
}

// Crash takes a node down: messages to or from it fail with
// ErrNodeDown until a FaultRestart. Kept for tests: query's
// TestRangePartialOnCrashedSiblings and TestAggregate* call it.
func (n *SimNetwork) Crash(id string) {
	n.Apply(FaultEvent{Op: FaultCrash, A: id})
}

// Crashed reports whether a node is currently down.
func (n *SimNetwork) Crashed(id string) bool {
	n.mu.RLock()
	p := n.faults
	n.mu.RUnlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed[id]
}

// DownNodes returns the ids of every currently crashed node, sorted —
// the transition-detection surface fault harnesses diff between ticks
// to learn which nodes just died (and, with durable state on disk,
// must be rebooted into recovery).
func (n *SimNetwork) DownNodes() []string {
	n.mu.RLock()
	p := n.faults
	n.mu.RUnlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.crashed))
	for id := range p.crashed {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SetReplyLoss sets the probability that a reply on the directed link
// from -> to is lost after the handler ran (0 clears it). This is the
// duplicate generator: the receiver processed the message, the sender
// sees an error and retries. Kept for tests: fognode's
// TestRetryKeepsDeliverySequence calls it.
func (n *SimNetwork) SetReplyLoss(from, to string, p float64) {
	n.Apply(FaultEvent{Op: FaultReplyLoss, A: from, B: to, Prob: p})
}

// admit runs the fault checks for one send: pump due scheduled
// events, then fail on crashes and partitions. It returns the extra
// one-way latency of each direction (latency spikes are directed, so
// the reply leg uses the reverse link's spike) and the reply-loss
// probability for the link. Called with no SimNetwork locks held.
func (p *faultPlane) admit(from, to string) (extraUp, extraDown time.Duration, replyLoss float64, err error) {
	if p == nil {
		return 0, 0, 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.clock != nil {
		p.pumpLocked(p.clock.Now())
	}
	switch {
	case p.crashed[to]:
		return 0, 0, 0, &DownError{Node: to}
	case p.crashed[from]:
		return 0, 0, 0, &DownError{Node: from}
	case p.partitioned[[2]string{from, to}]:
		return 0, 0, 0, &PartitionError{From: from, To: to}
	}
	return p.extra[[2]string{from, to}], p.extra[[2]string{to, from}], p.replyLoss[[2]string{from, to}], nil
}
