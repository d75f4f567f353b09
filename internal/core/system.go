// Package core assembles the paper's contribution: the SCC-DLC data
// life-cycle mapped onto the hierarchical fog-to-cloud resource
// architecture (paper §IV, Fig. 5). A System wires fog layer-1 nodes
// (acquisition + temporal storage), fog layer-2 nodes (combination +
// recent storage), and the cloud (preservation + dissemination) over
// a traffic-accounted network, and provides the day-scale simulation
// driver used by the evaluation harnesses.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/cq"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/placement"
	"f2c/internal/protocol"
	"f2c/internal/query"
	"f2c/internal/sched"
	"f2c/internal/sensor"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

// Options configures a System.
type Options struct {
	// Topology defines the hierarchy (defaults to Barcelona).
	Topology *topology.Topology
	// Clock provides time; simulations pass a *sim.VirtualClock.
	Clock sim.Clock
	// City names the deployment for description tags.
	City string
	// Codec compresses upward transfers (default zip, matching the
	// paper's §V.B experiment).
	Codec aggregate.Codec
	// Dedup enables redundant-data elimination at fog layer 1.
	Dedup bool
	// Quality enables the data-quality phase at fog layer 1.
	Quality bool
	// Retention windows per fog layer.
	Fog1Retention time.Duration
	Fog2Retention time.Duration
	// Flush intervals per fog layer (the paper's tunable upward
	// movement frequency).
	Fog1FlushInterval time.Duration
	Fog2FlushInterval time.Duration
	// Fog1FlushByCategory overrides the layer-1 upward frequency per
	// data class — the paper's per-business-model policy. Categories
	// not listed use Fog1FlushInterval.
	Fog1FlushByCategory map[model.Category]time.Duration
	// Matrix receives per-hop traffic accounting; nil allocates one.
	Matrix *metrics.TrafficMatrix
	// Registry receives node metrics; nil allocates one.
	Registry *metrics.Registry
	// Emulate enables wall-clock latency emulation on the simulated
	// network (latency benchmarks only).
	Emulate bool
	// Seed drives the simulated network's loss draws. With lossy
	// links the draw order — and therefore the exact drop pattern —
	// is only reproducible when flushing is serial (FlushConcurrency
	// and FlushWorkers set to 1); with the default concurrent
	// flushing the draws interleave with goroutine scheduling.
	// Lossless simulations stay fully deterministic either way.
	Seed int64
	// FlushConcurrency bounds how many fog nodes FlushAll, Start and
	// Close operate on in parallel within one layer. Draining is
	// network-bound, so the default (8) is independent of GOMAXPROCS;
	// 1 restores the serial path.
	FlushConcurrency int
	// FlushWorkers bounds each node's concurrent encode+send workers
	// during a flush (see fognode.Config.FlushWorkers).
	FlushWorkers int
	// MaxPendingReadings bounds each node's per-type upward buffer
	// during parent outages (see fognode.Config.MaxPendingReadings);
	// zero keeps the buffers unbounded.
	MaxPendingReadings int
	// RetryBase enables jittered exponential backoff on every fog
	// node's parent link (see fognode.Config.RetryBase); zero attempts
	// the parent on every flush. Sibling failover engages after
	// FailoverAfter consecutive failures either way.
	RetryBase time.Duration
	// RetryMax caps the backoff window (default 64 x RetryBase).
	RetryMax time.Duration
	// FailoverAfter is how many consecutive parent failures switch a
	// node to sibling relay (default 3). Fog layer-1 nodes relay
	// through their district siblings; fog layer-2 nodes through the
	// other districts.
	FailoverAfter int
	// DataDir enables durability across the hierarchy: every node
	// journals its delivery state (the cloud its archive) to a
	// write-ahead log with snapshots under DataDir/<node id>, keeps its
	// temporal store (the cloud its query series) in the tiered segment
	// engine under DataDir/<node id>/store — resident memory stays near
	// the memtable cap while history lives in mmap'd segment files —
	// and recovers both at construction, including through
	// System.Reboot, which simulates a process restart. Empty (the
	// default) keeps every node in-memory.
	DataDir string
	// SnapshotEvery sets each durable node's automatic-checkpoint
	// record threshold (see wal.Config.SnapshotEvery); zero selects
	// the wal default, negative disables automatic checkpoints.
	SnapshotEvery int
	// MemtableBytes caps each segment store's in-RAM memtable before
	// it flushes to a segment file (zero selects the engine default).
	MemtableBytes int64
	// Overload enables per-class weighted-fair admission with
	// token-bucket rate limits on every node's handler path (nil keeps
	// admission ungated; sched.DefaultOptions() is the usual value).
	Overload *sched.Options
	// DegradeToSummary turns MaxPendingReadings overflow into graceful
	// degradation: trimmed readings fold into decomposable window
	// summaries forwarded upward instead of being dropped.
	DegradeToSummary bool
	// AdaptiveFlush enables RTT-driven flush batch/interval tuning on
	// every fog node (false keeps the fixed cadence).
	AdaptiveFlush bool
	// ElasticOwnership routes each sensor type's edge ingest to a
	// consistent-hash owner among the district's fog layer-1 siblings,
	// and enables runtime scale: AddFog1Node / RemoveFog1Node rebalance
	// ownership with live shard migration (see elastic.go).
	ElasticOwnership bool
	// AlertObserver, when set, sees every continuous-query alert push
	// any fog node's own subscriptions seal, at seal time — the
	// fire-side ledger chaos harnesses compare against the cloud's
	// stored instances. Called from ingest and flush paths; must be
	// fast and safe for concurrent use.
	AlertObserver func(push protocol.AlertPush)
	// CloudRetention bounds the cloud archive's age — the paper's
	// years-scale preservation tier made finite (zero keeps forever).
	CloudRetention time.Duration
}

// applyNodeDefaults fills the settings Member projects onto a single
// node; hosts that build one node at a time need nothing else.
func (o *Options) applyNodeDefaults() {
	if o.Clock == nil {
		o.Clock = sim.WallClock{}
	}
	if o.City == "" {
		o.City = "Barcelona"
	}
	if o.Codec == 0 {
		o.Codec = aggregate.CodecZip
	}
	if o.Fog1Retention == 0 {
		o.Fog1Retention = time.Hour
	}
	if o.Fog2Retention == 0 {
		o.Fog2Retention = 24 * time.Hour
	}
	if o.Fog1FlushInterval <= 0 {
		o.Fog1FlushInterval = 15 * time.Minute
	}
	if o.Fog2FlushInterval <= 0 {
		o.Fog2FlushInterval = time.Hour
	}
}

func (o *Options) applyDefaults() {
	o.applyNodeDefaults()
	if o.Topology == nil {
		o.Topology = topology.Barcelona()
	}
	if o.Matrix == nil {
		o.Matrix = metrics.NewTrafficMatrix()
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	if o.FlushConcurrency <= 0 {
		o.FlushConcurrency = 8
	}
}

// System is a fully wired F2C deployment over a simulated network.
type System struct {
	opts    Options
	topo    *topology.Topology
	net     *transport.SimNetwork
	fog1IDs []string
	fog2IDs []string

	// nodeMu guards the node maps, the ID slices and the cloud
	// pointer: Reboot replaces instances and the elastic plane grows
	// and shrinks layer 1 while readers (queries, flush drivers) hold
	// references.
	nodeMu sync.RWMutex
	fog1   map[string]*fognode.Node
	fog2   map[string]*fognode.Node
	cloud  *cloud.Node

	// elastic is the per-district ownership state (nil unless
	// Options.ElasticOwnership); see elastic.go.
	elastic *elasticState
}

// CloudID is the cloud endpoint name.
const CloudID = "cloud"

// hopOf classifies an endpoint pair into the accounting hop.
func hopOf(from, to string) metrics.Hop {
	fromF1 := strings.HasPrefix(from, "fog1/")
	toF1 := strings.HasPrefix(to, "fog1/")
	switch {
	case fromF1 && strings.HasPrefix(to, "fog2/"):
		return metrics.HopFog1ToFog2
	case strings.HasPrefix(from, "fog2/") && to == CloudID:
		return metrics.HopFog2ToCloud
	case fromF1 && toF1:
		return metrics.HopFog1ToFog1
	case to == CloudID:
		return metrics.HopEdgeToCloud
	default:
		return metrics.HopDownlink
	}
}

// NewSystem builds and wires the full hierarchy.
func NewSystem(opts Options) (*System, error) {
	opts.applyDefaults()
	s := &System{
		opts: opts,
		topo: opts.Topology,
		fog1: make(map[string]*fognode.Node),
		fog2: make(map[string]*fognode.Node),
	}
	s.net = transport.NewSimNetwork(
		transport.WithSeed(opts.Seed),
		transport.WithDefaultLink(transport.EdgeLink),
		transport.WithLatencyEmulation(opts.Emulate),
		transport.WithTrafficMatrix(opts.Matrix, hopOf),
	)

	cl, err := s.buildCloud()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.cloud = cl
	s.net.Register(CloudID, cl)

	for _, spec := range s.topo.Fog2Nodes() {
		n, err := s.buildFog(spec)
		if err != nil {
			return nil, fmt.Errorf("core: fog2 %s: %w", spec.ID, err)
		}
		s.fog2[spec.ID] = n
		s.fog2IDs = append(s.fog2IDs, spec.ID)
		s.net.Register(spec.ID, n)
		s.net.SetLink(spec.ID, CloudID, transport.WANLink)
		for _, sib := range Siblings(s.topo, spec) {
			s.net.SetLink(spec.ID, sib, transport.MetroLink)
		}
	}

	for _, spec := range s.topo.Fog1Nodes() {
		n, err := s.buildFog(spec)
		if err != nil {
			return nil, fmt.Errorf("core: fog1 %s: %w", spec.ID, err)
		}
		s.fog1[spec.ID] = n
		s.fog1IDs = append(s.fog1IDs, spec.ID)
		s.net.Register(spec.ID, n)
		s.net.SetLink(spec.ID, spec.Parent, transport.MetroLink)
		s.net.SetLink(spec.ID, CloudID, transport.WANLink)
		for _, nbr := range s.topo.Neighbors(spec.ID) {
			s.net.SetLink(spec.ID, nbr, transport.MetroLink)
		}
	}
	sort.Strings(s.fog1IDs)
	sort.Strings(s.fog2IDs)
	if opts.ElasticOwnership {
		s.elastic = newElasticState(s)
	}
	return s, nil
}

// buildCloud and buildFog are the only constructors of a hosted node:
// NewSystem, Reboot and AddFog1Node all come through them, and they
// add nothing to what Options.Member projects.
func (s *System) buildCloud() (*cloud.Node, error) {
	return cloud.New(CloudConfig(CloudID, s.opts.Member(s.topo.Cloud(), s.net, nil)))
}

func (s *System) buildFog(spec topology.NodeSpec) (*fognode.Node, error) {
	return fognode.New(FogConfig(spec, s.opts.Member(spec, s.net, Siblings(s.topo, spec))))
}

// Reboot simulates a process restart of one node, fog or cloud: the
// current in-memory instance is discarded without a flush — exactly
// what a crash does — and a fresh instance is built and registered in
// its place. With durability enabled (Options.DataDir) the fresh
// instance recovers its delivery state (the cloud its archive) from
// the node's journal; without it, the node restarts empty, which is
// the pre-durability loss mode. Intended for fault-injection
// harnesses; the node's background flusher must not be running.
func (s *System) Reboot(id string) error {
	if id == CloudID {
		// The replaced instance's journal handle is released (crash
		// semantics: no flush, no checkpoint) before recovery opens
		// the same directory, so reboot loops do not leak descriptors.
		s.Cloud().Discard()
		cl, err := s.buildCloud()
		if err != nil {
			return fmt.Errorf("core: reboot %s: %w", id, err)
		}
		s.nodeMu.Lock()
		s.cloud = cl
		s.nodeMu.Unlock()
		s.net.Register(CloudID, cl)
		return nil
	}
	spec, ok := s.topo.Node(id)
	if !ok {
		return fmt.Errorf("core: reboot: unknown node %q", id)
	}
	nodes, get := s.fog1, s.Fog1
	if spec.Layer == topology.LayerFog2 {
		nodes, get = s.fog2, s.Fog2
	}
	if old, ok := get(id); ok {
		old.Discard()
	}
	n, err := s.buildFog(spec)
	if err != nil {
		return fmt.Errorf("core: reboot %s: %w", id, err)
	}
	s.nodeMu.Lock()
	nodes[id] = n
	s.nodeMu.Unlock()
	s.net.Register(id, n)
	return nil
}

// Topology returns the system's hierarchy.
func (s *System) Topology() *topology.Topology { return s.topo }

// Network exposes the simulated network.
func (s *System) Network() *transport.SimNetwork { return s.net }

// Matrix exposes the traffic accounting.
func (s *System) Matrix() *metrics.TrafficMatrix { return s.opts.Matrix }

// Cloud returns the cloud node (the current instance, after any
// Reboot).
func (s *System) Cloud() *cloud.Node {
	s.nodeMu.RLock()
	defer s.nodeMu.RUnlock()
	return s.cloud
}

// Fog1 returns a layer-1 node.
func (s *System) Fog1(id string) (*fognode.Node, bool) {
	s.nodeMu.RLock()
	defer s.nodeMu.RUnlock()
	n, ok := s.fog1[id]
	return n, ok
}

// Fog2 returns a layer-2 node.
func (s *System) Fog2(id string) (*fognode.Node, bool) {
	s.nodeMu.RLock()
	defer s.nodeMu.RUnlock()
	n, ok := s.fog2[id]
	return n, ok
}

// Fog1IDs returns the sorted layer-1 node IDs (the current roster,
// after any elastic scale events).
func (s *System) Fog1IDs() []string {
	s.nodeMu.RLock()
	defer s.nodeMu.RUnlock()
	out := make([]string, len(s.fog1IDs))
	copy(out, s.fog1IDs)
	return out
}

// Fog2IDs returns the sorted layer-2 node IDs.
func (s *System) Fog2IDs() []string {
	s.nodeMu.RLock()
	defer s.nodeMu.RUnlock()
	out := make([]string, len(s.fog2IDs))
	copy(out, s.fog2IDs)
	return out
}

// Planner builds a placement planner matching this system's retention
// and link configuration.
func (s *System) Planner() *placement.Planner {
	return placement.NewPlanner(placement.Config{
		Fog1Retention: s.opts.Fog1Retention,
		Fog2Retention: s.opts.Fog2Retention,
		Fog1Link:      transport.EdgeLink,
		Fog2Link:      transport.MetroLink,
		CloudLink:     transport.WANLink,
		NeighborLink:  transport.MetroLink,
	})
}

// IngestAt delivers an edge batch to a fog layer-1 node, accounting
// the sensor->fog segment with the same wire encoding used on the
// upward hops, so per-hop volumes are directly comparable. (The
// analytic Table I harness separately reproduces the paper's fixed
// per-transaction charges.)
func (s *System) IngestAt(fog1ID string, b *model.Batch) error {
	if s.elastic != nil {
		// Elastic ownership: the type's consistent-hash owner among the
		// district siblings ingests, not necessarily the section node
		// the edge batch arrived at.
		if owner, ok := s.elastic.routeIngest(fog1ID, b.TypeName); ok {
			fog1ID = owner
		}
	}
	n, ok := s.Fog1(fog1ID)
	if !ok {
		return fmt.Errorf("core: unknown fog1 node %q", fog1ID)
	}
	buf := edgeWire.Get().(*[]byte)
	*buf = sensor.AppendBatch((*buf)[:0], b)
	s.opts.Matrix.Record(metrics.HopEdgeToFog1, b.Category.String(), int64(len(*buf)))
	edgeWire.Put(buf)
	return n.Ingest(b)
}

// edgeWire holds the scratch buffers IngestAt encodes an edge batch
// into to count its wire bytes.
var edgeWire = sync.Pool{New: func() any { return new([]byte) }}

// Subscribe registers a standing continuous query at the lowest tier
// owning its sensor type. With elastic ownership, that is each
// district's ring owner of the type — the same node the type's edge
// ingest routes to, so the subscription evaluates in the ingest hot
// path and survives shard migration (MigrateOut carries live window
// state to the next owner). Without elastic ownership a type may
// surface at any section, so every layer-1 node registers it; nodes
// that never see the type stay on the engine's empty fast path.
func (s *System) Subscribe(sub cq.Subscription) error {
	if err := sub.Validate(); err != nil {
		return fmt.Errorf("core: subscribe: %w", err)
	}
	var errs []error
	if s.elastic != nil {
		for _, district := range s.Fog2IDs() {
			owner, ok := s.OwnerOf(district, sub.TypeName)
			if !ok {
				continue
			}
			n, ok := s.Fog1(owner)
			if !ok {
				errs = append(errs, fmt.Errorf("core: subscribe: owner %q not found", owner))
				continue
			}
			if err := n.Subscribe(sub); err != nil {
				errs = append(errs, fmt.Errorf("core: subscribe: %w", err))
			}
		}
		return errors.Join(errs...)
	}
	for _, id := range s.Fog1IDs() {
		n, ok := s.Fog1(id)
		if !ok {
			continue
		}
		if err := n.Subscribe(sub); err != nil {
			errs = append(errs, fmt.Errorf("core: subscribe: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Unsubscribe cancels a standing subscription everywhere it is
// registered, returning how many nodes held it.
func (s *System) Unsubscribe(subID string) int {
	removed := 0
	for _, id := range s.Fog1IDs() {
		if n, ok := s.Fog1(id); ok && n.Unsubscribe(subID) {
			removed++
		}
	}
	return removed
}

// Subscriptions lists the standing subscriptions registered across
// layer 1, deduplicated by ID (a subscription may live on several
// nodes) and sorted by ID.
func (s *System) Subscriptions() []cq.Subscription {
	seen := make(map[string]struct{})
	var out []cq.Subscription
	for _, id := range s.Fog1IDs() {
		n, ok := s.Fog1(id)
		if !ok {
			continue
		}
		for _, sub := range n.Subscriptions() {
			if _, dup := seen[sub.ID]; dup {
				continue
			}
			seen[sub.ID] = struct{}{}
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// forEachFog runs fn over the identified fog nodes with bounded
// concurrency (Options.FlushConcurrency) and returns the nodes'
// errors joined in ID order. Every node is dispatched even when the
// context is already cancelled — matching the old serial loops, and
// required by Close, which must stop every background flusher — and
// each node's own sends observe the context.
func (s *System) forEachFog(ctx context.Context, ids []string, get func(string) (*fognode.Node, bool), fn func(context.Context, *fognode.Node) error) error {
	errs := make([]error, len(ids))
	sem := make(chan struct{}, s.opts.FlushConcurrency)
	var wg sync.WaitGroup
	for i, id := range ids {
		// Resolve the current instance at dispatch time so a Reboot
		// between layers operates on the replacement, not a stale node.
		n, ok := get(id)
		if !ok {
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, n *fognode.Node) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(ctx, n)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// FlushAll flushes every layer-1 node and then every layer-2 node,
// draining all pending data to the cloud. Nodes within a layer flush
// in parallel (bounded by Options.FlushConcurrency); the barrier
// between layers preserves the serial drain guarantee that layer 2
// forwards what layer 1 just delivered.
func (s *System) FlushAll(ctx context.Context) error {
	err1 := s.forEachFog(ctx, s.Fog1IDs(), s.Fog1, func(ctx context.Context, n *fognode.Node) error {
		return n.Flush(ctx)
	})
	err2 := s.forEachFog(ctx, s.Fog2IDs(), s.Fog2, func(ctx context.Context, n *fognode.Node) error {
		return n.Flush(ctx)
	})
	return errors.Join(err1, err2)
}

// Start launches every node's background flusher (wall-clock mode).
// Node.Start only spawns a goroutine, so plain loops suffice.
func (s *System) Start() {
	for _, id := range s.Fog1IDs() {
		if n, ok := s.Fog1(id); ok {
			n.Start()
		}
	}
	for _, id := range s.Fog2IDs() {
		if n, ok := s.Fog2(id); ok {
			n.Start()
		}
	}
}

// Close stops all background flushers and drains pending data, layer
// 1 first so its final flushes land before layer 2 drains; a durable
// cloud then writes its final checkpoint and closes its journal.
func (s *System) Close(ctx context.Context) error {
	err1 := s.forEachFog(ctx, s.Fog1IDs(), s.Fog1, func(ctx context.Context, n *fognode.Node) error {
		return n.Close(ctx)
	})
	err2 := s.forEachFog(ctx, s.Fog2IDs(), s.Fog2, func(ctx context.Context, n *fognode.Node) error {
		return n.Close(ctx)
	})
	err3 := s.Cloud().Close()
	return errors.Join(err1, err2, err3)
}

// QueryEngine builds a hierarchical query engine acting for the
// given requester endpoint. Fog layer-1 requesters get the full plan
// — in-process local store, sibling scatter-gather, parent district,
// cloud — wired from the topology and retention windows; any other
// endpoint name (a fog2 node, an external client) gets a pure
// network client whose range queries go to the cloud and whose
// aggregates push down to the district partials.
func (s *System) QueryEngine(requesterID string) *query.Engine {
	cfg := query.Config{
		Self:          requesterID,
		Transport:     s.net,
		Clock:         s.opts.Clock,
		Fog1Retention: s.opts.Fog1Retention,
		Fog2Retention: s.opts.Fog2Retention,
		Districts:     s.Fog2IDs(),
		CloudID:       CloudID,
		PreferNeighbor: func(estBytes int64) bool {
			src, _ := s.Planner().ChooseSource(estBytes)
			return src == placement.SourceNeighbor
		},
	}
	if n, ok := s.Fog1(requesterID); ok {
		spec, _ := s.topo.Node(requesterID)
		cfg.Local = n
		cfg.Siblings = s.topo.Neighbors(requesterID)
		cfg.Parent = spec.Parent
	}
	eng, err := query.New(cfg)
	if err != nil {
		// Config is fully under our control; only a nil transport can
		// fail, and the system always has one.
		panic(fmt.Sprintf("core: query engine: %v", err))
	}
	return eng
}
