// Package chaos is the fault-injection harness for the F2C hierarchy:
// it runs seeded fault schedules — network partitions and heals,
// node crashes and restarts, latency spikes, lost acknowledgements —
// over a fully wired simulated city and asserts the end-to-end
// delivery invariants the architecture promises:
//
//   - exactly-once preservation: every reading accepted at a fog
//     layer-1 node is eventually queryable at the cloud exactly once —
//     no loss (retry queues + sibling failover survive the outage) and
//     no double count (at-least-once retries are deduped by delivery
//     sequence);
//   - bounded memory: with MaxPendingReadings configured, no node's
//     upward buffers ever exceed the bound during an outage, and every
//     reading is either preserved or counted shed — never silently
//     lost;
//   - convergence: once every fault heals, bounded recovery rounds
//     drain every retry queue and pending buffer;
//   - durable recovery (Scenario.Durable): crashes destroy volatile
//     state — the victim is rebooted from its write-ahead log at the
//     crash instant — and the zero-loss contract still holds end to
//     end: every accepted reading preserved exactly once, nothing
//     dropped during outages, dedup marks intact across restarts.
//
// Everything a run does — the workload, the fault schedule, the
// backoff jitter — derives from Scenario.Seed, so a failing run is
// reproduced by rerunning the seed printed in its error message. (The
// one caveat: scheduled goroutine interleaving can reorder the
// simulated network's loss draws between runs; the invariants hold
// for every interleaving, and the harness keeps flushing serial so
// draws stay ordered.)
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"f2c/internal/core"
	"f2c/internal/model"
	"f2c/internal/sched"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

// epoch is the fixed simulated start instant of every run.
var epoch = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// Scenario parameterizes one seeded chaos run.
type Scenario struct {
	// Name labels the run in errors and summaries.
	Name string
	// Kind selects the fault-schedule generator.
	Kind ScheduleKind
	// Seed drives the workload, the fault schedule and the network's
	// loss draws. Everything a failure message needs to reproduce.
	Seed int64
	// Ticks is how many clock ticks the faulted phase runs (default
	// 96).
	Ticks int
	// TickStep is the simulated time per tick (default 30s).
	TickStep time.Duration
	// BatchesPerTick is how many edge batches arrive per tick at
	// random healthy fog layer-1 nodes (default 3).
	BatchesPerTick int
	// ReadingsPerBatch sizes each batch (default 5).
	ReadingsPerBatch int
	// MaxPendingReadings, when > 0, bounds every node's per-type
	// upward buffer; the run then asserts the bound holds throughout
	// and that preserved + shed == accepted instead of exact
	// delivery.
	MaxPendingReadings int
	// ReplyLoss is the probability an upward acknowledgement is lost
	// during the scheduled loss bursts (default 0.3) — the duplicate
	// generator exercising the delivery-sequence dedup. Negative
	// disables reply loss entirely: acknowledgements always arrive, so
	// shed/preserved overlap cannot happen and conservation invariants
	// become exact.
	ReplyLoss float64
	// DegradeToSummary (with MaxPendingReadings) turns buffer trims
	// into graceful degradation: trimmed readings fold into window
	// summaries pushed upward instead of being dropped, and the run
	// additionally enables the admission scheduler (unlimited rates,
	// so the virtual clock never stalls a grant) and asserts the
	// no-double-count conservation ledger:
	// preserved + degraded + shed covers every accepted reading.
	DegradeToSummary bool
	// Durable runs the city on the production storage profile in a
	// temporary data directory — per-node write-ahead logs, and
	// temporal stores in the tiered segment engine capped at
	// MemtableBytes — and makes crashes real: the moment a scheduled
	// crash lands, the victim's in-memory instance is discarded and
	// rebooted from its journal and segments (its network endpoint
	// stays dark until the scheduled restart). The run then asserts
	// the full zero-loss contract — every accepted reading preserved
	// exactly once and DroppedDuringOutage == 0 — across every crash.
	// Without Durable, crashes only sever the network and in-memory
	// state survives, the pre-durability behavior.
	Durable bool
	// MemtableBytes caps each segment store's memtable in a Durable
	// run. Zero selects a deliberately tiny 2 KB cap, so the workload
	// forces continuous memtable flushes and background compactions
	// and crash reboots land mid-flush or mid-compaction. A production
	// cap (segment.DefaultMemtableBytes) never fills in a run, so
	// recovery rests on the journal and the WAL-replayed memtable.
	MemtableBytes int64
	// Elastic routes ingest through per-district consistent-hash
	// ownership rings (core.Options.ElasticOwnership) and lets the
	// schedule grow and shrink fog layer 1 mid-run with live shard
	// migration. Implied by the scale kinds (KindScaleOut, KindScaleIn,
	// KindRebalanceChurn); see elastic.go.
	Elastic bool
	// Alerts registers standing continuous queries before the first
	// tick and asserts the exactly-once alert ledger after
	// convergence: the set of alert instances the fog tier fired
	// equals the set the cloud archived. Implied (together with
	// Durable) by KindAlertChurn; see alerts.go.
	Alerts bool
}

func (s *Scenario) applyDefaults() {
	if s.Name == "" {
		s.Name = string(s.Kind)
	}
	if s.Ticks <= 0 {
		s.Ticks = 96
	}
	if s.TickStep <= 0 {
		s.TickStep = 30 * time.Second
	}
	if s.BatchesPerTick <= 0 {
		s.BatchesPerTick = 3
	}
	if s.ReadingsPerBatch <= 0 {
		s.ReadingsPerBatch = 5
	}
	if s.ReplyLoss == 0 {
		s.ReplyLoss = 0.3
	}
	if s.ReplyLoss < 0 {
		s.ReplyLoss = 0
	}
	if s.MemtableBytes <= 0 {
		s.MemtableBytes = 2048
	}
	if isElasticKind(s.Kind) {
		s.Elastic = true
	}
	if s.Kind == KindAlertChurn {
		// The alert contract is only meaningful against real crashes:
		// journaled seals and emitted marks are what stop a rebooted
		// window from firing twice.
		s.Alerts = true
		s.Durable = true
	}
}

// Result summarizes a completed run.
type Result struct {
	// Accepted is how many readings fog layer-1 ingest accepted.
	Accepted int
	// Preserved is how many readings the cloud archive ended up with.
	Preserved int
	// Shed is how many readings the MaxPendingReadings bound dropped
	// (always 0 for unbounded runs).
	Shed int64
	// Degraded is how many readings the cloud holds as folded window
	// summaries instead of raw values (always 0 without
	// DegradeToSummary).
	Degraded int64
	// Duplicates is how many at-least-once duplicate deliveries the
	// replay filters suppressed across the hierarchy.
	Duplicates int64
	// Relayed is how many batches reached the hierarchy through a
	// sibling relay instead of the direct parent link.
	Relayed int64
	// Deferred is how many flushes the backoff gate skipped entirely.
	Deferred int64
	// RecoveryRounds is how many flush rounds the post-heal drain
	// needed to converge.
	RecoveryRounds int
	// Dropped is how many readings were shed specifically from retry
	// queues during outages (the DroppedDuringOutage counter summed
	// across the hierarchy) — always 0 for unbounded and durable runs.
	Dropped int64
	// Reboots is how many crash-instant journal recoveries a durable
	// run performed (always 0 without Durable).
	Reboots int
	// ScaleOuts / ScaleIns count the completed elastic scale events
	// (always 0 without Elastic).
	ScaleOuts int
	ScaleIns  int
	// MigratedReadings is how many readings travelled inside shard-
	// migration transfers across the run (handoffs + routed forwards).
	MigratedReadings int64
	// MigrateBytes is the rebalance traffic: wire bytes of every
	// migration transfer shipped fog1 -> fog1, summed from the node
	// counters and cross-checked against the traffic matrix.
	MigrateBytes int64
	// AlertsFired / AlertsDelivered count the distinct continuous-
	// query alert instances the fog tier fired and the cloud archived
	// (always 0 without Alerts; the run asserts the two are equal
	// identity sets).
	AlertsFired     int
	AlertsDelivered int
	// AlertDuplicates is how many duplicate alert instances the
	// cloud's instance-identity dedup absorbed — retry copies that
	// survived the push-level replay filter via retry-queue folding.
	AlertDuplicates int64
}

// chaosTypes is the workload's sensor-type mix (quality and dedup are
// disabled, so any value is accepted and conserved).
var chaosTypes = []struct {
	name string
	cat  model.Category
}{
	{"traffic", model.CategoryUrban},
	{"noise_level", model.CategoryNoise},
}

// smallCity is the run topology: 2 districts, 5 sections, 8 nodes
// total — big enough for sibling failover and cross-district relays,
// small enough that a sweep of seeds stays fast.
func smallCity() (*topology.Topology, error) {
	return topology.New("Chaosville", []topology.District{
		{Name: "North", Sections: 3, Centroid: model.GeoPoint{Lat: 41.40, Lon: 2.17}},
		{Name: "South", Sections: 2, Centroid: model.GeoPoint{Lat: 41.37, Lon: 2.15}},
	})
}

// failf builds an invariant-violation error that always carries the
// scenario name and the reproducing seed.
func (s *Scenario) failf(format string, args ...any) error {
	return fmt.Errorf("chaos %s (rerun with seed %d): %s", s.Name, s.Seed, fmt.Sprintf(format, args...))
}

// Run executes one seeded scenario and checks every invariant. The
// returned error, if any, names the violated invariant and the seed
// that reproduces it.
func Run(s Scenario) (Result, error) {
	s.applyDefaults()
	var res Result
	topo, err := smallCity()
	if err != nil {
		return res, err
	}
	var dataDir string
	if s.Durable {
		dataDir, err = os.MkdirTemp("", "f2c-chaos-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dataDir)
	}
	clock := sim.NewVirtualClock(epoch)
	// Degrade runs also gate every handler through the admission
	// scheduler. Default class weights with unlimited rates: the
	// serial harness never exceeds the concurrency cap, so grants are
	// immediate and the virtual clock never waits on a token.
	var overload *sched.Options
	if s.DegradeToSummary {
		so := sched.DefaultOptions()
		overload = &so
	}
	alerts := newAlertDriver(&s)
	sys, err := core.NewSystem(core.Options{
		Topology: topo,
		Clock:    clock,
		City:     "Chaosville",
		Codec:    0, // default zip: the production wire path
		Seed:     s.Seed,
		// Serial flushing keeps the network's seeded draws ordered,
		// so a seed reproduces the same drop pattern.
		FlushConcurrency:   1,
		FlushWorkers:       1,
		MaxPendingReadings: s.MaxPendingReadings,
		DegradeToSummary:   s.DegradeToSummary,
		Overload:           overload,
		// Backoff/failover tuned to the tick scale: first re-probe
		// after ~1 tick, relay after 2 consecutive failures.
		RetryBase:     s.TickStep,
		RetryMax:      4 * s.TickStep,
		FailoverAfter: 2,
		// Local stores are irrelevant to the delivery invariants;
		// keep retention windows wide so eviction never intersects
		// the run span.
		Fog1Retention: 30 * 24 * time.Hour,
		Fog2Retention: 60 * 24 * time.Hour,
		// Durable runs journal every node under the temp data dir; a
		// small checkpoint threshold makes snapshot+truncate cycles
		// happen inside the run, so recovery exercises snapshot+tail,
		// not just log replay.
		DataDir:       dataDir,
		SnapshotEvery: 48,
		// The default tiny memtable cap turns the workload into a
		// flush/compact storm: every few batches spill a segment, so
		// crash reboots routinely interrupt a memtable flush or a
		// compaction merge.
		MemtableBytes: s.MemtableBytes,
		// Elastic runs route ingest through the per-district ownership
		// rings and allow mid-run scale events.
		ElasticOwnership: s.Elastic,
		// Alert runs record every fired instance for the exactly-once
		// alert ledger (nil otherwise).
		AlertObserver: alerts.observer(),
	})
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	net := sys.Network()
	net.ScheduleFaults(buildSchedule(s, rng, topo))

	// accepted tracks every reading fog layer-1 ingest accepted, by
	// its globally unique value.
	accepted := make(map[float64]string) // value -> type
	nextValue := 0.0
	// The roster is dynamic under Elastic (scale events add and remove
	// fog1 nodes mid-run), so every consumer resolves it at use time.
	liveNodes := func() []string { return append(sys.Fog1IDs(), sys.Fog2IDs()...) }
	ctx := context.Background()
	scale := newScaleDriver(&s, sys, rng)
	// Standing subscriptions land before the first tick, like a
	// deployment seeding them at boot.
	if err := alerts.register(&s, sys); err != nil {
		return res, err
	}

	ingestOne := func(now time.Time) error {
		fog1IDs := sys.Fog1IDs()
		id := fog1IDs[rng.Intn(len(fog1IDs))]
		if net.Crashed(id) {
			return nil // sensors cannot reach a crashed node
		}
		typ := chaosTypes[rng.Intn(len(chaosTypes))]
		b := &model.Batch{
			NodeID: "edge", TypeName: typ.name, Category: typ.cat, Collected: now,
		}
		for i := 0; i < s.ReadingsPerBatch; i++ {
			nextValue++
			b.Readings = append(b.Readings, model.Reading{
				SensorID: fmt.Sprintf("%s/%d", typ.name, rng.Intn(16)),
				TypeName: typ.name, Category: typ.cat,
				Time:  now.Add(time.Duration(i) * time.Millisecond),
				Value: nextValue,
			})
		}
		if err := sys.IngestAt(id, b); err != nil {
			return s.failf("healthy ingest at %s failed: %v", id, err)
		}
		for _, r := range b.Readings {
			accepted[r.Value] = typ.name
		}
		res.Accepted += len(b.Readings)
		return nil
	}

	checkBound := func(tick int) error {
		if s.MaxPendingReadings <= 0 {
			return nil
		}
		// The bound is per type; a node buffers at most len(chaosTypes)
		// bounded types.
		limit := s.MaxPendingReadings * len(chaosTypes)
		for _, id := range liveNodes() {
			n := nodeOf(sys, id)
			if got := n.PendingReadings(); got > limit {
				return s.failf("tick %d: node %s buffers %d readings, bound is %d",
					tick, id, got, limit)
			}
		}
		return nil
	}

	// Durable crash semantics: the tick loop diffs the crashed set and
	// reboots every new victim immediately — its volatile state is
	// gone, only the journal survives — while the network keeps
	// refusing its traffic until the scheduled restart heals it.
	prevDown := make(map[string]bool)
	rebootCrashed := func() error {
		if !s.Durable {
			return nil
		}
		down := net.DownNodes()
		cur := make(map[string]bool, len(down))
		for _, id := range down {
			cur[id] = true
			if !prevDown[id] {
				if err := sys.Reboot(id); err != nil {
					return s.failf("reboot %s from journal: %v", id, err)
				}
				res.Reboots++
			}
		}
		prevDown = cur
		return nil
	}

	// Faulted phase: ingest, flush, query, scale, verify the memory
	// bound.
	for tick := 0; tick < s.Ticks; tick++ {
		clock.Advance(s.TickStep)
		net.PumpFaults(clock.Now())
		if err := rebootCrashed(); err != nil {
			return res, err
		}
		for i := 0; i < s.BatchesPerTick; i++ {
			if err := ingestOne(clock.Now()); err != nil {
				return res, err
			}
		}
		// Scale events land between ingest and flush, so a handoff
		// always overlaps freshly buffered (and retry-parked) state —
		// the migration path moves real data, not empty shells.
		if err := scale.fire(ctx, tick); err != nil {
			return res, s.failf("scale event: %v", err)
		}
		// Flush errors are expected mid-outage: data requeues.
		_ = sys.FlushAll(ctx)
		if err := checkBound(tick); err != nil {
			return res, err
		}
		// A read mid-outage must degrade (partial flag, skipped
		// tiers), never hang or crash the walk.
		if tick%7 == 3 {
			fog1IDs := sys.Fog1IDs()
			requester := fog1IDs[rng.Intn(len(fog1IDs))]
			if !net.Crashed(requester) {
				from := clock.Now().Add(-time.Duration(s.Ticks) * s.TickStep)
				_, _ = sys.QueryEngine(requester).RangeDetailed(ctx, "traffic", from, clock.Now(), 1000)
			}
		}
	}

	// Recovery: heal everything, then drain. Each round advances past
	// the largest backoff window so deferred nodes re-probe.
	net.HealAll()
	const maxRounds = 64
	drained := false
	for round := 1; round <= maxRounds; round++ {
		clock.Advance(4 * s.TickStep)
		// Scale events the faulted phase could not complete (a leave
		// refused while its state was still parked behind an outage)
		// finish here, against the healed network.
		if err := scale.fire(ctx, 1<<30); err != nil {
			return res, s.failf("scale event after heal: %v", err)
		}
		if err := sys.FlushAll(ctx); err != nil {
			return res, s.failf("recovery round %d flush failed after heal: %v", round, err)
		}
		res.RecoveryRounds = round
		if totalPending(sys, liveNodes()) == 0 {
			drained = true
			break
		}
	}
	if !drained {
		return res, s.failf("no convergence: %d batches still pending after %d recovery rounds",
			totalPending(sys, liveNodes()), maxRounds)
	}

	// Invariants over the cloud archive. Departed nodes count too:
	// their shed/dup/relay tallies are part of the run's ledger.
	allNodes := liveNodes()
	res.Shed = totalShed(sys, allNodes)
	// Degraded reads held state, as Preserved and the alert check do:
	// a counter on the shared registry outlives a simulated crash of
	// the node that counted it.
	for _, typ := range chaosTypes {
		for _, w := range sys.Cloud().DegradedSummaries(typ.name) {
			res.Degraded += w.Summary.Count
		}
	}
	res.Dropped = totalDropped(sys, allNodes)
	res.Duplicates = totalDuplicates(sys, allNodes)
	res.Relayed, res.Deferred = totalRelayedDeferred(sys, allNodes)
	for _, n := range scale.removed {
		res.Shed += n.ShedReadings()
		res.Dropped += n.DroppedDuringOutage()
		res.Duplicates += n.DuplicateBatches()
		res.Relayed += n.RelayedBatches()
		res.Deferred += n.DeferredFlushes()
	}
	if s.Durable && res.Dropped != 0 {
		return res, s.failf("durable run dropped %d readings during outages", res.Dropped)
	}
	if err := scale.checkInvariants(&s, &res); err != nil {
		return res, err
	}
	if err := alerts.checkInvariants(&s, sys, &res); err != nil {
		return res, err
	}

	seen := make(map[float64]int, len(accepted))
	for _, typ := range chaosTypes {
		for _, r := range sys.Cloud().Historical(typ.name, epoch, clock.Now().Add(time.Hour)) {
			seen[r.Value]++
			res.Preserved++
			if seen[r.Value] > 1 {
				return res, s.failf("duplicate preservation: %s value %v archived %d times",
					typ.name, r.Value, seen[r.Value])
			}
			if accepted[r.Value] != typ.name {
				return res, s.failf("phantom reading: %s value %v was never accepted", typ.name, r.Value)
			}
		}
	}
	if s.MaxPendingReadings > 0 {
		// Shed and preserved can overlap: a delivered batch whose
		// acknowledgement was lost sits on the retry queue, and if the
		// bound trims it, its readings count as shed (or, degrading,
		// fold into a summary) even though the receiver preserved them
		// (the sender cannot know). Shed + degraded is therefore an
		// upper bound on loss, and the invariant is no SILENT loss:
		// every accepted reading that never reached the cloud raw must
		// be covered by the shed count or archived inside a degraded
		// summary.
		missing := 0
		for v := range accepted {
			if seen[v] == 0 {
				missing++
			}
		}
		if int64(missing) > res.Shed+res.Degraded {
			return res, s.failf("silent loss: %d readings neither preserved nor covered by shed (%d) + degraded (%d)",
				missing, res.Shed, res.Degraded)
		}
		// With acknowledgements reliable (ReplyLoss < 0) the overlap
		// disappears and the ledger is exact: every accepted reading
		// is preserved raw, archived degraded, or counted shed — each
		// exactly once, no double count.
		if s.ReplyLoss == 0 {
			if got := int64(res.Preserved) + res.Degraded + res.Shed; got != int64(res.Accepted) {
				return res, s.failf("conservation broken: preserved %d + degraded %d + shed %d = %d, accepted %d",
					res.Preserved, res.Degraded, res.Shed, got, res.Accepted)
			}
		}
	} else {
		if res.Shed != 0 {
			return res, s.failf("unbounded run shed %d readings", res.Shed)
		}
		if res.Preserved != res.Accepted {
			missing := 0
			for v := range accepted {
				if seen[v] == 0 {
					missing++
				}
			}
			return res, s.failf("exactly-once broken: accepted %d, preserved %d (%d missing)",
				res.Accepted, res.Preserved, missing)
		}
	}
	return res, nil
}

// nodeOf returns the fog node behind an ID, at either layer.
func nodeOf(sys *core.System, id string) interface {
	PendingBatches() int
	PendingReadings() int
	ShedReadings() int64
	DroppedDuringOutage() int64
	RelayedBatches() int64
	DuplicateBatches() int64
	DeferredFlushes() int64
} {
	if n, ok := sys.Fog1(id); ok {
		return n
	}
	if n, ok := sys.Fog2(id); ok {
		return n
	}
	panic("chaos: unknown node " + id)
}

func totalPending(sys *core.System, ids []string) int {
	total := 0
	for _, id := range ids {
		total += nodeOf(sys, id).PendingBatches()
	}
	return total
}

func totalShed(sys *core.System, ids []string) int64 {
	var total int64
	for _, id := range ids {
		total += nodeOf(sys, id).ShedReadings()
	}
	return total
}

func totalDropped(sys *core.System, ids []string) int64 {
	var total int64
	for _, id := range ids {
		total += nodeOf(sys, id).DroppedDuringOutage()
	}
	return total
}

func totalDuplicates(sys *core.System, ids []string) int64 {
	total := sys.Cloud().DuplicateBatches()
	for _, id := range ids {
		total += nodeOf(sys, id).DuplicateBatches()
	}
	return total
}

func totalRelayedDeferred(sys *core.System, ids []string) (relayed, deferred int64) {
	for _, id := range ids {
		n := nodeOf(sys, id)
		relayed += n.RelayedBatches()
		deferred += n.DeferredFlushes()
	}
	return relayed, deferred
}
