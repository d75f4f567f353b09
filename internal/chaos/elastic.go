package chaos

// Joins and leaves: in an elastic run the event table grows and
// shrinks fog layer 1 mid-run, and live shard migration moves each
// type whose ring owner flips. The run then checks the rebalance
// traffic: every migrated byte shows up in the traffic matrix under
// transport.ClassMigrate, and the volume stays bounded by what
// consistent hashing is allowed to move.

import (
	"context"
	"slices"
	"strings"

	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/transport"
)

// join adds a fog layer-1 node to a drawn district. A join whose
// rebalance cannot finish (targets behind an outage) still counts:
// the parked state drains after heal like any other retry.
func join(r *run) error {
	ids := r.sys.Fog2IDs()
	district := ids[r.rng.Intn(len(ids))]
	id, err := r.sys.AddFog1Node(context.Background(), district)
	if id == "" {
		return r.failf("scale-out %s: %v", district, err)
	}
	r.res.ScaleOuts++
	return nil
}

// leave removes a drawn fog layer-1 node, unless it is its district's
// last one or already leaving.
func leave(r *run) error {
	ids := r.sys.Fog2IDs()
	kids := r.sys.Topology().Children(ids[r.rng.Intn(len(ids))])
	if len(kids) <= 1 {
		return nil
	}
	victim := kids[r.rng.Intn(len(kids))]
	if slices.Contains(r.leaving, victim) {
		return nil
	}
	return r.remove(victim)
}

// retryLeaves retries every leave the system refused so far.
func (r *run) retryLeaves() error {
	queued := r.leaving
	r.leaving = nil
	for _, id := range queued {
		if err := r.remove(id); err != nil {
			return err
		}
	}
	return nil
}

// remove asks the system to remove a node. A refusal (state not yet
// evacuable, last node of its district) queues it for the next tick
// instead of failing the run.
func (r *run) remove(id string) error {
	n, ok := r.sys.Fog1(id)
	if !ok {
		return nil
	}
	err := r.sys.RemoveFog1Node(context.Background(), id)
	if _, still := r.sys.Fog1(id); still {
		if err == nil {
			return r.failf("scale-in %s: no error but node still present", id)
		}
		if !strings.Contains(err.Error(), "still pending") && !strings.Contains(err.Error(), "last node") {
			return r.failf("scale-in %s: %v", id, err)
		}
		r.leaving = append(r.leaving, id)
		return nil
	}
	// Removed: err, if any, only reports handoffs whose state the
	// pre-removal flush drained instead.
	r.removed = append(r.removed, n)
	r.res.ScaleIns++
	return nil
}

// checkRebalance fills the migration fields of the Result from every
// node the run had and checks the rebalance closures once the run has
// converged.
func (r *run) checkRebalance(nodes []*fognode.Node) error {
	res := &r.res
	var inReads int64
	for _, n := range nodes {
		res.MigrateBytes += n.MigratedOutBytes()
		res.MigratedReadings += n.MigratedOutReadings()
		inReads += n.MigratedInReadings()
	}
	// Accounting closure: every byte a node reports shipped appears in
	// the matrix as fog1 -> fog1 migrate traffic. (The matrix also
	// counts transfers whose ack or handler failed, so it only reads
	// higher.)
	if got := r.sys.Matrix().BytesByClass(metrics.HopFog1ToFog1, transport.ClassMigrate); got < res.MigrateBytes {
		return r.failf("rebalance traffic unaccounted: matrix %d B < node counters %d B", got, res.MigrateBytes)
	}
	// Absorption closure: receivers absorb at most what senders
	// shipped (chunks a receiver deduped are not counted again).
	if inReads > res.MigratedReadings {
		return r.failf("migration absorbed %d readings but only %d were shipped", inReads, res.MigratedReadings)
	}
	// The rebalance bound: consistent hashing moves a type's state at
	// most once per membership change (plus the routed forwards between
	// the flip and the handoff), so the volume cannot exceed every
	// accepted reading moving once per scale event — loose, but it
	// catches migration storms and forwarding loops.
	events := int64(res.ScaleOuts + res.ScaleIns)
	if limit := int64(res.Accepted) * (events + 1); res.MigratedReadings > limit {
		return r.failf("rebalance moved %d readings, bound is %d (%d accepted, %d scale events)",
			res.MigratedReadings, limit, res.Accepted, events)
	}
	return nil
}
