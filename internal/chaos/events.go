package chaos

import (
	"context"
	"slices"
	"time"

	"f2c/internal/core"
	"f2c/internal/topology"
)

// event is one entry of the weighted table. weight is how many times
// the entry fires in an average run: each tick of the draw span draws
// one number in [0, drawSpan), and the entry whose weight range holds
// it fires (if its profile gate allows). Numbers past every range are
// quiet ticks.
type event struct {
	weight int
	only   func(Profile) bool
	fire   func(*run) error
}

// drawSpan is the faulted phase's first 3/4: the ticks events are
// drawn on.
const drawSpan = ticks * 3 / 4

var events = []event{
	{8, nil, cut},
	{12, nil, crash},
	{16, func(p Profile) bool { return p.LossyAcks }, replyLoss},
	{2, nil, latencySpike},
	{4, func(p Profile) bool { return p.Elastic }, join},
	{4, func(p Profile) bool { return p.Elastic }, leave},
	{10, nil, probe},
}

// drawEvent draws this tick's event from the table and fires it.
func (r *run) drawEvent() error {
	x := r.rng.Intn(drawSpan)
	for _, ev := range events {
		if x < ev.weight {
			if ev.only == nil || ev.only(r.prof) {
				return ev.fire(r)
			}
			return nil
		}
		x -= ev.weight
	}
	return nil
}

// after queues heal at a tick drawn from [minLen, maxLen] ticks ahead.
func (r *run) after(minLen, maxLen int, heal func()) {
	at := r.tick + minLen + r.rng.Intn(maxLen-minLen+1)
	r.heals[at] = append(r.heals[at], heal)
}

// uplink draws a fog1 -> district or a district -> cloud link.
func (r *run) uplink() (from, to string) {
	if r.rng.Intn(2) == 0 {
		ids := r.sys.Fog2IDs()
		return ids[r.rng.Intn(len(ids))], core.CloudID
	}
	ids := r.sys.Fog1IDs()
	from = ids[r.rng.Intn(len(ids))]
	spec, _ := r.sys.Topology().Node(from)
	return from, spec.Parent
}

// cut severs an uplink, the sibling relay's home turf.
func cut(r *run) error {
	from, to := r.uplink()
	r.net.Partition(from, to)
	r.after(ticks/6, ticks/3, func() { r.net.Heal(from, to) })
	return nil
}

// replyLoss makes an uplink lose acknowledgements after the handler
// ran: senders retry, receivers must dedupe.
func replyLoss(r *run) error {
	from, to := r.uplink()
	r.net.SetReplyLoss(from, to, 0.5)
	r.after(ticks/8, ticks/4, func() { r.net.SetReplyLoss(from, to, 0) })
	return nil
}

// latencySpike slows an uplink: congestion, not failure.
func latencySpike(r *run) error {
	from, to := r.uplink()
	r.net.SetExtraLatency(from, to, 250*time.Millisecond)
	r.after(ticks/8, ticks/4, func() { r.net.SetExtraLatency(from, to, 0) })
	return nil
}

// crash takes down a fog1 node, a district or the cloud, one tier in
// three each. In a lossy profile the victim first handles this tick's
// deliveries from its children without replying, and dies after the
// flush: the children's retries after its reboot are duplicates that
// only its recovered replay marks can catch.
func crash(r *run) error {
	id := core.CloudID
	switch r.rng.Intn(3) {
	case 0:
		ids := r.sys.Fog1IDs()
		id = ids[r.rng.Intn(len(ids))]
	case 1:
		ids := r.sys.Fog2IDs()
		id = ids[r.rng.Intn(len(ids))]
	}
	if r.down[id] || slices.Contains(r.dying, id) {
		return nil
	}
	if !r.prof.LossyAcks {
		return r.kill(id)
	}
	for _, kid := range r.sys.Topology().Children(id) {
		r.net.SetReplyLoss(kid, id, 1)
	}
	r.dying = append(r.dying, id)
	return nil
}

// killDying kills the nodes crash left dying, after the flush in which
// they took their children's deliveries without replying.
func (r *run) killDying() error {
	for _, id := range r.dying {
		for _, kid := range r.sys.Topology().Children(id) {
			r.net.SetReplyLoss(kid, id, 0)
		}
		if err := r.kill(id); err != nil {
			return err
		}
	}
	r.dying = nil
	return nil
}

// kill crashes a node now. On a data dir the victim reboots from disk
// at once: its volatile state is gone, and the network refuses its
// traffic until the drawn heal.
func (r *run) kill(id string) error {
	r.net.Crash(id)
	r.down[id] = true
	if r.prof.Storage != "ram" {
		if err := r.sys.Reboot(id); err != nil {
			return r.failf("reboot %s from disk: %v", id, err)
		}
		spec, _ := r.sys.Topology().Node(id)
		r.res.Reboots[spec.Layer-topology.LayerFog1]++
	}
	r.after(ticks/8, ticks/4, func() {
		r.net.Restart(id)
		delete(r.down, id)
	})
	return nil
}

// probe runs a federated range read from a random healthy fog1 node:
// mid-outage it must degrade (partial flag, skipped tiers), never hang.
func probe(r *run) error {
	ids := r.sys.Fog1IDs()
	id := ids[r.rng.Intn(len(ids))]
	if !r.down[id] {
		now := r.clock.Now()
		_, _ = r.sys.QueryEngine(id).RangeDetailed(context.Background(), "traffic", now.Add(-ticks*tickStep), now, 1000)
	}
	return nil
}
