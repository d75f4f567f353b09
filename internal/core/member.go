package core

import (
	"path/filepath"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/protocol"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// MemberOptions configures one node of a hierarchy independently of
// how the hierarchy is hosted. Options.Member derives it; FogConfig
// and CloudConfig turn it into the node's own configuration.
type MemberOptions struct {
	// City names the deployment for description tags.
	City string
	// Clock provides time (daemons pass sim.WallClock{}).
	Clock sim.Clock
	// Transport delivers the node's upward and sibling traffic.
	Transport transport.Transport
	// Retention is the node's temporal-store window.
	Retention time.Duration
	// FlushInterval is the node's upward movement period.
	FlushInterval time.Duration
	// Codec compresses upward transfers.
	Codec aggregate.Codec
	// Dedup and Quality toggle the layer-1 acquisition phases; both
	// are forced off on layer-2 nodes (redundancy is eliminated and
	// quality checked once, at acquisition).
	Dedup, Quality bool
	// Registry receives node metrics; nil lets the node allocate a
	// private one.
	Registry *metrics.Registry
	// Siblings are the node's failover relay targets.
	Siblings []string
	// Tuning knobs, zero for defaults (see fognode.Config).
	FlushWorkers       int
	MaxPendingReadings int
	RetryBase          time.Duration
	RetryMax           time.Duration
	FailoverAfter      int
	// Durability enables WAL + snapshot crash recovery.
	Durability *wal.Config
	// Storage backs the node's temporal store (the cloud's query
	// series) with the tiered segment engine instead of RAM.
	Storage *segment.Options
	// Overload enables the per-class weighted-fair admission scheduler
	// on the node's handler path (nil keeps admission ungated). Each
	// node builds its own scheduler instance from the shared options.
	Overload *sched.Options
	// DegradeToSummary folds buffer-trimmed readings into decomposable
	// window summaries forwarded upward instead of dropping them.
	DegradeToSummary bool
	// Adaptive enables RTT-driven flush batch/interval tuning (false
	// keeps the fixed FlushInterval and unchunked batches).
	Adaptive bool
	// CloudRetention bounds the cloud archive's age (zero keeps it
	// forever). Ignored on fog nodes, which use Retention.
	CloudRetention time.Duration
	// AlertObserver sees every continuous-query alert push the node's
	// own subscriptions seal (see fognode.Config.AlertObserver).
	AlertObserver func(push protocol.AlertPush)
}

// Member projects a deployment's options onto one of its nodes: the
// layer's retention and flush period, and — a data dir is both or
// neither — the node's journal under DataDir/<node id> and its segment
// store under DataDir/<node id>/store. Every host builds its nodes
// from it — NewSystem each node of the simulated city, f2cd the one
// node of a daemon process, citysim's live mode a hierarchy over real
// sockets — so the node an operator starts is the node the tests and
// the chaos harness ran. tr carries the node's upward and sibling
// traffic and siblings are its failover relay targets (see Siblings);
// the cloud takes neither. A host that wants per-node metrics sets
// o.Registry before the call.
func (o Options) Member(spec topology.NodeSpec, tr transport.Transport, siblings []string) MemberOptions {
	o.applyNodeDefaults()
	mo := MemberOptions{
		City:               o.City,
		Clock:              o.Clock,
		Transport:          tr,
		Codec:              o.Codec,
		Dedup:              o.Dedup,
		Quality:            o.Quality,
		Registry:           o.Registry,
		Siblings:           siblings,
		FlushWorkers:       o.FlushWorkers,
		MaxPendingReadings: o.MaxPendingReadings,
		RetryBase:          o.RetryBase,
		RetryMax:           o.RetryMax,
		FailoverAfter:      o.FailoverAfter,
		Overload:           o.Overload,
		DegradeToSummary:   o.DegradeToSummary,
		Adaptive:           o.AdaptiveFlush,
		CloudRetention:     o.CloudRetention,
		AlertObserver:      o.AlertObserver,
	}
	switch spec.Layer {
	case topology.LayerFog1:
		mo.Retention, mo.FlushInterval = o.Fog1Retention, o.Fog1FlushInterval
	case topology.LayerFog2:
		mo.Retention, mo.FlushInterval = o.Fog2Retention, o.Fog2FlushInterval
	}
	if o.DataDir != "" {
		// Node ids contain '/' and become nested directories.
		dir := filepath.Join(o.DataDir, spec.ID)
		mo.Durability = &wal.Config{Dir: dir, SnapshotEvery: o.SnapshotEvery}
		mo.Storage = &segment.Options{Dir: filepath.Join(dir, "store"), MemtableBytes: o.MemtableBytes}
	}
	return mo
}

// Siblings returns a node's failover relay targets in topo: a
// section's district neighbours, a district's other districts (when
// its own WAN uplink is partitioned, a healthy district relays the
// sealed batches to the cloud).
func Siblings(topo *topology.Topology, spec topology.NodeSpec) []string {
	switch spec.Layer {
	case topology.LayerFog1:
		return topo.Neighbors(spec.ID)
	case topology.LayerFog2:
		var sibs []string
		for _, other := range topo.Fog2Nodes() {
			if other.ID != spec.ID {
				sibs = append(sibs, other.ID)
			}
		}
		return sibs
	}
	return nil
}

// FogConfig assembles the fognode.Config for one fog node of either
// layer.
func FogConfig(spec topology.NodeSpec, o MemberOptions) fognode.Config {
	fog1 := spec.Layer == topology.LayerFog1
	return fognode.Config{
		Spec:               spec,
		City:               o.City,
		Clock:              o.Clock,
		Transport:          o.Transport,
		Retention:          o.Retention,
		FlushInterval:      o.FlushInterval,
		Codec:              o.Codec,
		Dedup:              o.Dedup && fog1,
		Quality:            o.Quality && fog1,
		Registry:           o.Registry,
		FlushWorkers:       o.FlushWorkers,
		MaxPendingReadings: o.MaxPendingReadings,
		Siblings:           o.Siblings,
		RetryBase:          o.RetryBase,
		RetryMax:           o.RetryMax,
		FailoverAfter:      o.FailoverAfter,
		Durability:         o.Durability,
		Storage:            o.Storage,
		Scheduler:          o.Overload,
		DegradeToSummary:   o.DegradeToSummary,
		Adaptive:           o.Adaptive,
		AlertObserver:      o.AlertObserver,
	}
}

// CloudConfig assembles the cloud.Config for the hierarchy's root.
func CloudConfig(id string, o MemberOptions) cloud.Config {
	return cloud.Config{
		ID:         id,
		City:       o.City,
		Clock:      o.Clock,
		Registry:   o.Registry,
		Codec:      o.Codec,
		Durability: o.Durability,
		Storage:    o.Storage,
		Scheduler:  o.Overload,
		Retention:  o.CloudRetention,
	}
}
