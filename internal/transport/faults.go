package transport

import (
	"sync"
	"time"
)

// faultPlane holds the injected-failure state of a SimNetwork. A nil
// *faultPlane (fault injection never configured) is inert: every check
// returns the healthy answer.
type faultPlane struct {
	mu          sync.Mutex
	partitioned map[[2]string]bool
	crashed     map[string]bool
	extra       map[[2]string]time.Duration
	replyLoss   map[[2]string]float64
}

// fault runs change against the network's fault plane under its lock,
// building the plane on first use.
func (n *SimNetwork) fault(change func(p *faultPlane)) {
	n.mu.Lock()
	if n.faults == nil {
		n.faults = &faultPlane{
			partitioned: make(map[[2]string]bool),
			crashed:     make(map[string]bool),
			extra:       make(map[[2]string]time.Duration),
			replyLoss:   make(map[[2]string]float64),
		}
	}
	p := n.faults
	n.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	change(p)
}

// Partition severs the directed link from -> to: sends fail with
// ErrPartitioned. Partition both directions for a full cut.
func (n *SimNetwork) Partition(from, to string) {
	n.fault(func(p *faultPlane) { p.partitioned[[2]string{from, to}] = true })
}

// Heal removes the directed partition from -> to.
func (n *SimNetwork) Heal(from, to string) {
	n.fault(func(p *faultPlane) { delete(p.partitioned, [2]string{from, to}) })
}

// Crash takes a node down: messages to or from it fail with
// ErrNodeDown until Restart.
func (n *SimNetwork) Crash(id string) {
	n.fault(func(p *faultPlane) { p.crashed[id] = true })
}

// Restart brings a crashed node back.
func (n *SimNetwork) Restart(id string) {
	n.fault(func(p *faultPlane) { delete(p.crashed, id) })
}

// SetExtraLatency adds a one-way latency spike to the directed link
// from -> to (congestion, not failure); 0 clears it.
func (n *SimNetwork) SetExtraLatency(from, to string, d time.Duration) {
	n.fault(func(p *faultPlane) {
		if d <= 0 {
			delete(p.extra, [2]string{from, to})
		} else {
			p.extra[[2]string{from, to}] = d
		}
	})
}

// SetReplyLoss sets the probability that a reply on the directed link
// from -> to is lost after the handler ran (0 clears it). This is the
// duplicate generator: the receiver processed the message, the sender
// sees an error and retries.
func (n *SimNetwork) SetReplyLoss(from, to string, prob float64) {
	n.fault(func(p *faultPlane) {
		if prob <= 0 {
			delete(p.replyLoss, [2]string{from, to})
		} else {
			p.replyLoss[[2]string{from, to}] = prob
		}
	})
}

// HealAll clears every partition, crash, latency spike and reply-loss
// rule at once (end-of-outage convergence).
func (n *SimNetwork) HealAll() {
	n.fault(func(p *faultPlane) {
		clear(p.partitioned)
		clear(p.crashed)
		clear(p.extra)
		clear(p.replyLoss)
	})
}

// admit runs the fault checks for one send: crashes and partitions
// fail it. It returns the extra one-way latency of each direction
// (latency spikes are directed, so the reply leg uses the reverse
// link's spike) and the reply-loss probability for the link. Called
// with no SimNetwork locks held.
func (p *faultPlane) admit(from, to string) (extraUp, extraDown time.Duration, replyLoss float64, err error) {
	if p == nil {
		return 0, 0, 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
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
