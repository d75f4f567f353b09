// Package chaos is the fault-injection harness for the F2C hierarchy.
// Its one entry point, Run(seed), wires a small simulated city and
// lets the seed draw everything else: first the run's Profile
// (storage, buffer bound, acknowledgement loss, ownership, flush
// cadence), then, tick by tick, its fault events from one weighted
// table (events.go): uplink cuts, crashes at every tier, reply-loss
// bursts, latency spikes, joins and leaves, federated read probes.
// Admission, three standing subscriptions with their alert ledger, and
// latency spikes are on in every run. After the faulted phase every
// fault heals, bounded recovery rounds drain the city, and the same
// end-to-end checks run on every profile:
//
//   - exactly-once when unbounded: every reading fog layer 1 accepted
//     is archived at the cloud exactly once, and nothing is shed or
//     dropped;
//   - no silent loss when bounded: every accepted reading the cloud
//     does not hold raw is covered by shed + degraded, and with
//     reliable acknowledgements preserved + degraded + shed ==
//     accepted;
//   - the buffer bound on every tick, and convergence after heal;
//   - the alert ledger: the fired instance set equals the set the
//     cloud archived (alerts.go);
//   - the rebalance closures (elastic.go).
//
// On a data dir a crash is real: the victim's in-memory instance is
// discarded and rebooted from its journal and segments at the crash
// instant, while its endpoint stays dark until its drawn heal tick.
//
// A failure names the seed, the drawn profile and the command that
// reruns it. (The one caveat: goroutine interleaving could reorder the
// simulated network's loss draws, so the harness flushes serially.)
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"f2c/internal/core"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/sched"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

const (
	// ticks is the length of the faulted phase; events are drawn
	// during its first 3/4 so every outage has time to heal.
	ticks    = 96
	tickStep = 30 * time.Second
	// batchesPerTick edge batches of readingsPerBatch readings arrive
	// per tick at random healthy fog layer-1 nodes.
	batchesPerTick   = 3
	readingsPerBatch = 5
	// bound is MaxPendingReadings in bounded profiles.
	bound = 40
	// maxRounds bounds the post-heal drain.
	maxRounds = 64
)

// epoch is the fixed simulated start instant of every run.
var epoch = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// Profile is what a seed draws before its first tick: one value per
// dimension.
type Profile struct {
	// Storage is "ram"; "disk", a data dir with the production
	// memtable, so recovery rests on the journal; or "disk-2KB", a
	// 2 KB memtable that turns the workload into a flush and
	// compaction storm, so reboots land mid-flush.
	Storage string
	// Buffer is "unbounded"; "shed", where the bound drops what it
	// trims; or "degrade", where trims fold into window summaries.
	Buffer string
	// LossyAcks adds reply-loss bursts, the duplicate generator, to
	// the event table. With reliable acks the bounded ledger is exact.
	LossyAcks bool
	// Elastic routes ingest through the ownership rings and adds joins
	// and leaves to the event table.
	Elastic bool
	// Adaptive turns on RTT-driven flush tuning.
	Adaptive bool
}

var (
	storages = []string{"ram", "disk", "disk-2KB"}
	buffers  = []string{"unbounded", "shed", "degrade"}
)

func drawProfile(rng *rand.Rand) Profile {
	return Profile{
		Storage:   storages[rng.Intn(len(storages))],
		Buffer:    buffers[rng.Intn(len(buffers))],
		LossyAcks: rng.Intn(2) == 1,
		Elastic:   rng.Intn(2) == 1,
		Adaptive:  rng.Intn(2) == 1,
	}
}

// Result summarizes a completed run.
type Result struct {
	Profile Profile
	// Accepted is how many readings fog layer-1 ingest accepted;
	// Preserved how many the cloud archive holds raw.
	Accepted  int
	Preserved int
	// Shed is how many readings the bound dropped; Degraded how many
	// the cloud holds folded into window summaries.
	Shed     int64
	Degraded int64
	// Dropped is the part of Shed trimmed from parked retry items
	// during outages.
	Dropped int64
	// Duplicates is how many at-least-once redeliveries the replay
	// filters suppressed; Relayed how many batches went up through a
	// sibling; Deferred how many flushes the backoff gate skipped.
	Duplicates int64
	Relayed    int64
	Deferred   int64
	// RecoveryRounds is how many drain rounds convergence took.
	RecoveryRounds int
	// Reboots counts reboots from disk per tier: fog1, fog2, cloud.
	Reboots [3]int
	// ScaleOuts and ScaleIns count completed joins and leaves;
	// MigratedReadings and MigrateBytes the state they moved.
	ScaleOuts        int
	ScaleIns         int
	MigratedReadings int64
	MigrateBytes     int64
	// AlertsFired and AlertsDelivered count the distinct alert
	// instances the fog tier fired and the cloud archived;
	// AlertDuplicates the copies the cloud's instance dedup absorbed.
	AlertsFired     int
	AlertsDelivered int
	AlertDuplicates int64
}

// chaosTypes is the workload's sensor-type mix (quality and dedup are
// off, so every value is accepted and conserved).
var chaosTypes = []struct {
	name string
	cat  model.Category
}{
	{"traffic", model.CategoryUrban},
	{"noise_level", model.CategoryNoise},
}

// smallCity is the run topology: 2 districts, 5 sections — big enough
// for sibling failover, small enough that a seed sweep stays fast.
func smallCity() (*topology.Topology, error) {
	return topology.New("Chaosville", []topology.District{
		{Name: "North", Sections: 3, Centroid: model.GeoPoint{Lat: 41.40, Lon: 2.17}},
		{Name: "South", Sections: 2, Centroid: model.GeoPoint{Lat: 41.37, Lon: 2.15}},
	})
}

// run is one seeded run in flight.
type run struct {
	seed  int64
	prof  Profile
	rng   *rand.Rand
	sys   *core.System
	net   *transport.SimNetwork
	clock *sim.VirtualClock
	tick  int
	// heals holds the queued end of every drawn outage, by tick.
	heals map[int][]func()
	// down is the set of crashed nodes; dying the nodes drawn to crash
	// after this tick's flush.
	down  map[string]bool
	dying []string
	// leaving holds refused leaves, retried every tick; removed the
	// nodes that left, whose counters stay in the ledger.
	leaving []string
	removed []*fognode.Node
	alerts  alertLedger
	// accepted maps every accepted reading's unique value to its type.
	accepted map[float64]string
	res      Result
}

// failf builds a check failure that names the seed, the profile and
// the command that reruns it.
func (r *run) failf(format string, args ...any) error {
	return fmt.Errorf("chaos seed %d, profile %+v: %s\nrerun: go test ./internal/chaos -run '^TestChaos$/^seed=%d$' -count=1 -chaos.seeds %d",
		r.seed, r.prof, fmt.Sprintf(format, args...), r.seed, r.seed)
}

// Run executes one seeded run and checks every invariant. The
// returned error, if any, names the violated invariant and how to
// rerun it.
func Run(seed int64) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &run{seed: seed, prof: drawProfile(rng), rng: rng, clock: sim.NewVirtualClock(epoch),
		heals: make(map[int][]func()), down: make(map[string]bool), accepted: make(map[float64]string)}
	r.res.Profile = r.prof
	topo, err := smallCity()
	if err != nil {
		return r.res, err
	}
	var dataDir string
	if r.prof.Storage != "ram" {
		if dataDir, err = os.MkdirTemp("", "f2c-chaos-*"); err != nil {
			return r.res, err
		}
		defer os.RemoveAll(dataDir)
	}
	memtable := int64(0) // the production cap
	if r.prof.Storage == "disk-2KB" {
		memtable = 2048
	}
	maxPending := 0
	if r.prof.Buffer != "unbounded" {
		maxPending = bound
	}
	// Admission as every document-built node runs it. The serial
	// harness never exceeds the concurrency cap, so grants are
	// immediate and the virtual clock never waits on a token.
	overload := sched.DefaultOptions()
	r.sys, err = core.NewSystem(core.Options{
		Topology: topo,
		Clock:    r.clock,
		City:     "Chaosville",
		Seed:     seed,
		// Serial flushing keeps the network's seeded draws ordered.
		FlushConcurrency:   1,
		FlushWorkers:       1,
		MaxPendingReadings: maxPending,
		DegradeToSummary:   r.prof.Buffer == "degrade",
		AdaptiveFlush:      r.prof.Adaptive,
		Overload:           &overload,
		// Backoff and failover tuned to the tick: first re-probe after
		// ~1 tick, relay after 2 consecutive failures.
		RetryBase:     tickStep,
		RetryMax:      4 * tickStep,
		FailoverAfter: 2,
		// Retention wide enough that eviction never meets the run.
		Fog1Retention: 30 * 24 * time.Hour,
		Fog2Retention: 60 * 24 * time.Hour,
		// A small checkpoint threshold puts snapshot+truncate cycles
		// inside the run, so recovery reads snapshot and tail.
		DataDir:          dataDir,
		SnapshotEvery:    48,
		MemtableBytes:    memtable,
		ElasticOwnership: r.prof.Elastic,
		AlertObserver:    r.alerts.observe,
	})
	if err != nil {
		return r.res, err
	}
	r.net = r.sys.Network()
	if err := r.subscribe(); err != nil {
		return r.res, err
	}
	if err := r.faultedPhase(); err != nil {
		return r.res, err
	}
	if err := r.drain(); err != nil {
		return r.res, err
	}
	return r.res, r.check()
}

// faultedPhase runs the ticks: heal what is due, ingest, retry refused
// leaves, fire the drawn event (between ingest and flush, so a crash
// or a handoff always meets freshly buffered state), flush, kill the
// dying, check the bound.
func (r *run) faultedPhase() error {
	for r.tick = 0; r.tick < ticks; r.tick++ {
		r.clock.Advance(tickStep)
		for _, heal := range r.heals[r.tick] {
			heal()
		}
		delete(r.heals, r.tick)
		for i := 0; i < batchesPerTick; i++ {
			if err := r.ingest(); err != nil {
				return err
			}
		}
		if err := r.retryLeaves(); err != nil {
			return err
		}
		if r.tick < drawSpan {
			if err := r.drawEvent(); err != nil {
				return err
			}
		}
		// Flush errors are expected mid-outage: data requeues.
		_ = r.sys.FlushAll(context.Background())
		if err := r.killDying(); err != nil {
			return err
		}
		if err := r.checkBound(); err != nil {
			return err
		}
	}
	return nil
}

// ingest delivers one edge batch of fresh, globally unique values to
// a random fog layer-1 node, unless that node is down.
func (r *run) ingest() error {
	ids := r.sys.Fog1IDs()
	id := ids[r.rng.Intn(len(ids))]
	if r.down[id] {
		return nil // sensors cannot reach a crashed node
	}
	typ := chaosTypes[r.rng.Intn(len(chaosTypes))]
	now := r.clock.Now()
	b := &model.Batch{NodeID: "edge", TypeName: typ.name, Category: typ.cat, Collected: now}
	for i := 0; i < readingsPerBatch; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: fmt.Sprintf("%s/%d", typ.name, r.rng.Intn(16)),
			TypeName: typ.name, Category: typ.cat,
			Time:  now.Add(time.Duration(i) * time.Millisecond),
			Value: float64(r.res.Accepted + i + 1),
		})
	}
	if err := r.sys.IngestAt(id, b); err != nil {
		return r.failf("healthy ingest at %s failed: %v", id, err)
	}
	for _, rd := range b.Readings {
		r.accepted[rd.Value] = typ.name
	}
	r.res.Accepted += len(b.Readings)
	return nil
}

// checkBound asserts that no node buffers more than the bound allows
// (it is per type, and a node buffers both types).
func (r *run) checkBound() error {
	if r.prof.Buffer == "unbounded" {
		return nil
	}
	for _, n := range r.liveNodes() {
		if got := n.PendingReadings(); got > bound*len(chaosTypes) {
			return r.failf("tick %d: node %s buffers %d readings, bound is %d",
				r.tick, n.ID(), got, bound*len(chaosTypes))
		}
	}
	return nil
}

// drain heals everything, then flushes until no batch is pending.
// Each round advances past the largest backoff window.
func (r *run) drain() error {
	r.net.HealAll()
	clear(r.down)
	for round := 1; round <= maxRounds; round++ {
		r.clock.Advance(4 * tickStep)
		// Leaves refused while state was parked behind an outage
		// finish here, against the healed network.
		if err := r.retryLeaves(); err != nil {
			return err
		}
		if err := r.sys.FlushAll(context.Background()); err != nil {
			return r.failf("recovery round %d flush failed after heal: %v", round, err)
		}
		r.res.RecoveryRounds = round
		if r.pending() == 0 {
			return nil
		}
	}
	return r.failf("no convergence: %d batches still pending after %d recovery rounds", r.pending(), maxRounds)
}

// pending counts the batches every live node still holds.
func (r *run) pending() int {
	total := 0
	for _, n := range r.liveNodes() {
		total += n.PendingBatches()
	}
	return total
}

// liveNodes returns every current fog node, both layers.
func (r *run) liveNodes() []*fognode.Node {
	var out []*fognode.Node
	for _, id := range r.sys.Fog1IDs() {
		n, _ := r.sys.Fog1(id)
		out = append(out, n)
	}
	for _, id := range r.sys.Fog2IDs() {
		n, _ := r.sys.Fog2(id)
		out = append(out, n)
	}
	return out
}

// check fills the ledger and asserts the end-to-end invariants over
// the cloud archive. Departed nodes count: their tallies are part of
// the run.
func (r *run) check() error {
	res := &r.res
	res.Duplicates = r.sys.Cloud().DuplicateBatches()
	nodes := append(r.liveNodes(), r.removed...)
	for _, n := range nodes {
		res.Shed += n.ShedReadings()
		res.Dropped += n.DroppedDuringOutage()
		res.Duplicates += n.DuplicateBatches()
		res.Relayed += n.RelayedBatches()
		res.Deferred += n.DeferredFlushes()
	}
	// Degraded reads held state, as Preserved does: a counter outlives
	// a simulated crash of the node that counted it.
	seen := make(map[float64]int, len(r.accepted))
	for _, typ := range chaosTypes {
		for _, w := range r.sys.Cloud().DegradedSummaries(typ.name) {
			res.Degraded += w.Summary.Count
		}
		for _, rd := range r.sys.Cloud().Historical(typ.name, epoch, r.clock.Now().Add(time.Hour)) {
			seen[rd.Value]++
			res.Preserved++
			if seen[rd.Value] > 1 {
				return r.failf("duplicate preservation: %s value %v archived %d times", typ.name, rd.Value, seen[rd.Value])
			}
			if r.accepted[rd.Value] != typ.name {
				return r.failf("phantom reading: %s value %v was never accepted", typ.name, rd.Value)
			}
		}
	}
	if err := r.checkRebalance(nodes); err != nil {
		return err
	}
	if err := r.checkAlerts(); err != nil {
		return err
	}
	missing := len(r.accepted) - len(seen)
	switch {
	case r.prof.Buffer == "unbounded":
		if res.Shed != 0 || res.Dropped != 0 {
			return r.failf("unbounded run shed %d readings (%d dropped during outages)", res.Shed, res.Dropped)
		}
		if missing != 0 {
			return r.failf("exactly-once broken: accepted %d, preserved %d (%d missing)", res.Accepted, res.Preserved, missing)
		}
	case r.prof.LossyAcks:
		// A delivered batch whose ack was lost stays parked; if the
		// bound trims it, it counts as shed (or folds into a summary)
		// although the receiver preserved it. So shed + degraded only
		// bounds loss, and the check is no silent loss.
		if int64(missing) > res.Shed+res.Degraded {
			return r.failf("silent loss: %d readings neither preserved nor covered by shed (%d) + degraded (%d)",
				missing, res.Shed, res.Degraded)
		}
	default:
		// Reliable acks: no overlap, so the ledger is exact.
		if got := int64(res.Preserved) + res.Degraded + res.Shed; got != int64(res.Accepted) {
			return r.failf("conservation broken: preserved %d + degraded %d + shed %d = %d, accepted %d",
				res.Preserved, res.Degraded, res.Shed, got, res.Accepted)
		}
	}
	return nil
}
