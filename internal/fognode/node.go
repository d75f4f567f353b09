// Package fognode implements the fog node runtime used at both fog
// layers of the F2C hierarchy (paper §IV): the acquisition pipeline
// (collection -> redundant-data elimination -> quality -> description)
// at layer 1, temporal storage with retention for real-time access,
// combination of child batches at layer 2, and the periodic upward
// flusher whose frequency "can be strategically decided in order to
// accommodate it to the network traffic".
//
// The acquisition pipeline (dedup, then quality, then description)
// runs over hash-sharded per-type state, so concurrent Ingest calls on
// different sensor types never contend on a node-wide lock, and
// flushes move the sharded pending buffers upward with a bounded
// worker pool.
//
// Upward delivery is one mechanism (shard.go): whatever leaves the
// node — raw batches, degrade summaries, continuous-query alerts — is
// sealed into an item under a frozen (origin, seq), journaled, queued
// on its sensor type's outbox, sent at least once in queue order by
// the one send path (deliver), committed on acknowledgement, and
// carried verbatim by sibling relay and shard migration. What differs
// between the kinds is a table (kindTable): rank, relay eligibility,
// overflow policy. Receivers dedupe by (origin, seq) through one
// atomic check-and-mark (durable.Core.Accept).
//
// Overload is handled in three tiers. Admission (Config.Scheduler): a
// per-class weighted-fair scheduler gates Handle so queries keep their
// share of the node's capacity under an ingest burst, rejecting an
// overflowing class fast with the typed overload error. Degradation
// (Config.DegradeToSummary): when the MaxPendingReadings bound trims a
// type's upward buffer, the trimmed readings fold into per-window
// decomposable summaries pushed upward at the next flush — resolution
// is lost, counts are not; raw shed remains only as the last resort.
// Backpressure from the parent defers a send to the next flush; the
// cadence stays the operator's FlushInterval.
package fognode

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cq"
	"f2c/internal/describe"
	"f2c/internal/durable"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/quality"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/store"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// ErrNoParent is returned by Flush on a node with no upward peer.
var ErrNoParent = errors.New("fognode: node has no parent")

// Config configures a Node.
type Config struct {
	// Spec is the node's place in the topology.
	Spec topology.NodeSpec
	// City names the deployment for data description.
	City string
	// Clock provides time (virtual in simulations).
	Clock sim.Clock
	// Transport reaches the parent node; may be nil for leaf-only
	// experiments (Flush then fails with ErrNoParent).
	Transport transport.Transport
	// Retention bounds the temporal store (0 = keep forever).
	Retention time.Duration
	// FlushInterval drives the background flusher started by Start.
	FlushInterval time.Duration
	// Codec compresses upward transfers.
	Codec aggregate.Codec
	// Dedup enables redundant-data elimination on ingest (the paper
	// applies it at fog layer 1).
	Dedup bool
	// Quality enables the data-quality phase on ingest.
	Quality bool
	// Registry receives node metrics; nil allocates a private one.
	Registry *metrics.Registry
	// MaxPendingReadings bounds the per-type upward buffer during
	// parent outages; when exceeded, the oldest readings are shed
	// and counted in the <node>.flush.shed metric. Zero means
	// unbounded.
	MaxPendingReadings int
	// DegradeToSummary changes what the MaxPendingReadings bound does
	// with the oldest readings: instead of shedding them raw, they are
	// folded into per-minute decomposable summaries and pushed upward
	// at the next flush (transport.KindSummaryPush) — the node loses
	// resolution, not information. Counted in flush.degraded_readings
	// and flush.summaries_emitted; raw shed remains the last resort
	// once a type parks more unsent summary pushes than
	// maxParkedPushes.
	DegradeToSummary bool
	// AlertObserver, when set, sees every alert push this node's own
	// subscriptions fire, at seal time — the hook the exactly-once
	// chaos ledger (and local alerting sinks) attach to. Called
	// synchronously outside the shard locks; implementations must be
	// fast, safe for concurrent use, and must not retain the push.
	// Replayed journal records do not re-invoke it; a window refired
	// after a crash that beat its seal record does (same instance
	// identity, so set-semantics consumers are unaffected).
	AlertObserver func(push protocol.AlertPush)
	// Scheduler, when set, gates this node's handler path with a
	// per-class weighted-fair admission scheduler (ingest / query /
	// relay), so latency-sensitive traffic never starves behind bulk
	// ingest at the node itself. Each node builds its own scheduler
	// instance from these shared options.
	Scheduler *sched.Options
	// FlushWorkers bounds how many batches a flush encodes and sends
	// concurrently. Sends are network-bound, so the default (4) is
	// independent of GOMAXPROCS; 1 sends the types one at a time, in
	// sorted order.
	FlushWorkers int
	// Siblings are peer fog nodes at this node's own layer that can
	// relay batches to their parent when this node's parent is
	// unreachable (the distributed-fog failover path). Empty disables
	// sibling relay.
	Siblings []string
	// RetryBase enables jittered exponential backoff on parent
	// failures: after a failed flush the parent is re-probed no
	// sooner than RetryBase (doubling per consecutive failure up to
	// RetryMax, jittered over [d/2, d]). Zero disables backoff only:
	// every flush attempts the parent, and sibling failover still
	// engages after FailoverAfter consecutive failures.
	RetryBase time.Duration
	// RetryMax caps the backoff window (default 64 x RetryBase).
	RetryMax time.Duration
	// FailoverAfter is how many consecutive parent failures switch
	// the node to sibling relay (default 3; effective only with
	// Siblings configured).
	FailoverAfter int
	// Durability, when set, gives the node a data dir: it journals its
	// upward-delivery state (accepted readings, sealed items, commits,
	// sheds, replay-filter marks) to a write-ahead log with periodic
	// snapshots in Durability.Dir, keeps its temporal store in the
	// tiered segment engine at <Dir>/store (a memtable flushing to
	// mmap'd on-disk segments, so resident memory stays near the
	// memtable cap whatever the retention), and recovers both at
	// construction — so a restarted node resumes with its store,
	// pending and degrade buffers, outboxes, sequence counter and dedup
	// marks intact instead of starting empty. The journal is the
	// store's only log (see internal/durable). Nil (the default) keeps
	// the node fully in-memory.
	Durability *wal.Config
	// Storage, optional beside Durability, tunes the segment store;
	// Retention, Registry and MetricsPrefix default from the node
	// config when zero. Storage without Durability is refused
	// (durable.ErrStorageMode).
	Storage *segment.Options
}

func (c *Config) applyDefaults() error {
	if c.Spec.ID == "" {
		return errors.New("fognode: config needs a node spec")
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	if c.Codec == 0 {
		c.Codec = aggregate.CodecNone
	}
	if !c.Codec.Valid() {
		return fmt.Errorf("fognode %s: invalid codec %d", c.Spec.ID, int(c.Codec))
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = time.Minute
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.City == "" {
		c.City = "city"
	}
	if c.FlushWorkers <= 0 {
		c.FlushWorkers = 4
	}
	if c.RetryBase > 0 && c.RetryMax < c.RetryBase {
		c.RetryMax = 64 * c.RetryBase
	}
	if c.FailoverAfter <= 0 {
		c.FailoverAfter = 3
	}
	return nil
}

// Node is a fog node at layer 1 or 2. Safe for concurrent use.
type Node struct {
	cfg Config
	// store is the node's temporal store, the durable core's Series:
	// the segment store on a node with a data dir, else in RAM.
	store     store.Series
	deduper   *aggregate.Deduper
	assessor  *quality.Assessor // nil unless Config.Quality
	describer *describe.Describer

	shards    []pendingShard
	shardMask uint32

	// up is the parent-link retry/backoff/failover state machine;
	// replay dedupes at-least-once deliveries on the receive path;
	// seq numbers this node's outgoing sealed batches.
	up     *upstream
	replay *protocol.ReplayFilter
	seq    atomic.Uint64

	// dur is the receive-side durable core: the journal (nil when
	// Durability is off), the store and the acceptance path over
	// replay. flightMu excludes
	// checkpoints (write side) from senders (read side). Every item a
	// sender works on is still on its outbox, so a snapshot cannot miss
	// it; but a sender sorts and stamps a claimed batch in place outside
	// the shard lock, and the snapshot encoder must not read it
	// meanwhile.
	dur      *durable.Core
	flightMu sync.RWMutex

	// sched gates the handler path per traffic class (nil = no
	// admission control).
	sched *sched.Scheduler

	// routes forwards edge ingest of sensor types whose ownership
	// migrated to a sibling (see migrate.go); routeMu guards it.
	routeMu sync.RWMutex
	routes  map[string]string

	// cqe evaluates standing continuous-query subscriptions in the
	// ingest path (see alerts.go).
	cqe *cq.Engine

	ingestedBatches  *metrics.Counter
	ingestedReads    *metrics.Counter
	flushedBatches   *metrics.Counter
	flushedBytes     *metrics.Counter
	flushErrors      *metrics.Counter
	rejectedReads    *metrics.Counter
	shedReads        *metrics.Counter
	outageDrops      *metrics.Counter
	relayedBatches   *metrics.Counter
	deferredFlushes  *metrics.Counter
	degradedReads    *metrics.Counter
	summariesEmitted *metrics.Counter
	degradedIn       *metrics.Counter
	migOutTransfers  *metrics.Counter
	migOutReads      *metrics.Counter
	migOutBytes      *metrics.Counter
	migInTransfers   *metrics.Counter
	migInReads       *metrics.Counter
	alertsFired      *metrics.Counter
	alertPushesOut   *metrics.Counter
	alertsIn         *metrics.Counter
	alertFolds       *metrics.Counter
	alertsShed       *metrics.Counter
	// sent counts the items the parent acknowledged, by kind rank.
	sent [len(kindTable)]*metrics.Counter

	// scratch recycles per-flush-worker buffers (wire encoding,
	// sealed payload, collected batch slice) so steady-state flushes
	// do not touch the heap.
	scratch sync.Pool

	lc *lifecycle
}

// flushScratch is the reusable state of one flush worker: the
// sealer's wire-encode buffer and the sealed-payload buffer handed to
// the transport. Payload buffers may be reused immediately after
// Transport.Send returns (transports do not retain them — see
// transport.Transport).
type flushScratch struct {
	sealer  protocol.Sealer
	payload []byte
}

func (n *Node) getScratch() *flushScratch {
	if sc, ok := n.scratch.Get().(*flushScratch); ok {
		return sc
	}
	return &flushScratch{}
}

func (n *Node) putScratch(sc *flushScratch) {
	// Don't let one outlier batch pin a giant buffer in the pool.
	const maxKeep = 1 << 20
	if cap(sc.payload) > maxKeep {
		sc.payload = nil
	}
	sc.sealer.Trim(maxKeep)
	n.scratch.Put(sc)
}

// New builds a node.
func New(cfg Config) (*Node, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	district := ""
	if cfg.Spec.Layer == topology.LayerFog2 {
		district = cfg.Spec.Name
	}
	n := &Node{
		cfg:       cfg,
		deduper:   aggregate.NewDeduper(),
		describer: describe.NewDescriber(cfg.City, district, cfg.Spec.Name, cfg.Spec.Centroid, "f2c"),
		shards:    newPendingShards(),
		up:        newUpstream(&cfg),
		replay:    protocol.NewReplayFilter(protocol.DefaultReplayWindow),
		routes:    make(map[string]string),
		cqe:       cq.NewEngine(),
		lc:        newLifecycle(),
	}
	dur, err := durable.Open(cfg.Durability, cfg.Storage, cfg.Retention, cfg.Registry, cfg.Spec.ID+".", n.replay)
	if err != nil {
		return nil, fmt.Errorf("fognode %s: %w", cfg.Spec.ID, err)
	}
	n.dur, n.store = dur, dur.Series
	n.shardMask = uint32(len(n.shards) - 1)
	reg := cfg.Registry
	prefix := cfg.Spec.ID + "."
	n.ingestedBatches = reg.Counter(prefix + "ingest.batches")
	n.ingestedReads = reg.Counter(prefix + "ingest.readings")
	n.flushedBatches = reg.Counter(prefix + "flush.batches")
	n.flushedBytes = reg.Counter(prefix + "flush.bytes")
	n.flushErrors = reg.Counter(prefix + "flush.errors")
	n.rejectedReads = reg.Counter(prefix + "ingest.rejected")
	n.shedReads = reg.Counter(prefix + "flush.shed")
	n.outageDrops = reg.Counter(prefix + "flush.dropped_during_outage")
	n.relayedBatches = reg.Counter(prefix + "flush.relayed")
	n.deferredFlushes = reg.Counter(prefix + "flush.deferred")
	n.degradedReads = reg.Counter(prefix + "flush.degraded_readings")
	n.summariesEmitted = reg.Counter(prefix + "flush.summaries_emitted")
	n.degradedIn = reg.Counter(prefix + "ingest.degraded_in")
	n.migOutTransfers = reg.Counter(prefix + "migrate.out_transfers")
	n.migOutReads = reg.Counter(prefix + "migrate.out_readings")
	n.migOutBytes = reg.Counter(prefix + "migrate.out_bytes")
	n.migInTransfers = reg.Counter(prefix + "migrate.in_transfers")
	n.migInReads = reg.Counter(prefix + "migrate.in_readings")
	n.alertsFired = reg.Counter(prefix + "cq.alerts_fired")
	n.alertPushesOut = reg.Counter(prefix + "cq.pushes_out")
	n.alertsIn = reg.Counter(prefix + "cq.alerts_in")
	n.alertFolds = reg.Counter(prefix + "cq.retry_folds")
	n.alertsShed = reg.Counter(prefix + "cq.alerts_shed")
	n.sent = [...]*metrics.Counter{n.flushedBatches, n.summariesEmitted, n.alertPushesOut}
	if cfg.Scheduler != nil {
		n.sched = sched.New(*cfg.Scheduler, cfg.Clock, reg, prefix+"sched.")
	}
	if cfg.Quality {
		n.assessor = quality.NewAssessor(nil)
	}

	if err := dur.Recover(n.recovery()); err != nil {
		return nil, fmt.Errorf("fognode %s: %w", cfg.Spec.ID, err)
	}
	n.seedSeq()
	return n, nil
}

// seedSeq starts the delivery sequences at a random per-process base
// unless recovery set the counter from the journal: a restarted node
// must not reuse its predecessor's sequences, or the parent's replay
// filter (which remembers the old process under the same origin)
// would falsely dedupe the new process's first batches. The base is
// halved for overflow headroom and forced nonzero (sequence 0 means
// "unidentified").
func (n *Node) seedSeq() { n.seq.CompareAndSwap(0, rand.Uint64()>>1|1) }

// noteSeq keeps the counter at or past one of this node's own
// sequences — a no-op on the live path, which minted it, and how
// replay restores the counter.
func (n *Node) noteSeq(seq uint64) {
	for cur := n.seq.Load(); cur < seq && !n.seq.CompareAndSwap(cur, seq); cur = n.seq.Load() {
	}
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.cfg.Spec.ID }

// Layer returns the node's hierarchy layer.
func (n *Node) Layer() topology.Layer { return n.cfg.Spec.Layer }

// Ingest runs the acquisition pipeline on a batch: redundant-data
// elimination and quality assessment (each when enabled), description
// tagging, temporal storage, and queueing for the next upward flush.
// Safe to call concurrently; ingests of different sensor types proceed
// on disjoint shards.
func (n *Node) Ingest(b *model.Batch) error {
	return n.ingest(b, "", 0)
}

// ingest is Ingest plus the delivery mark of the transport hop that
// carried the batch (origin/seq zero for local edge ingests). On a
// durable node the mark is journaled atomically with the acceptance,
// so a recovered receiver either has both the readings and the dedup
// mark or neither — never a replayed batch it would re-accept.
func (n *Node) ingest(b *model.Batch, origin string, seq uint64) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("fognode %s: ingest: %w", n.cfg.Spec.ID, err)
	}
	n.ingestedBatches.Inc()

	if n.cfg.Dedup {
		b = n.deduper.Filter(b) // paper §V.A
	}
	score := 1.0
	if n.assessor != nil {
		var rep quality.Report
		b, rep = n.assessor.Assess(b, n.cfg.Clock.Now())
		score = rep.Score()
		n.rejectedReads.Add(int64(rep.Rejected))
	}
	tags := n.describer.Describe(b, score)

	sh := n.shardFor(b.TypeName)
	sh.mu.Lock()
	sh.tags[b.TypeName] = tags
	sh.mu.Unlock()

	if len(b.Readings) == 0 {
		return nil
	}
	n.ingestedReads.Add(int64(len(b.Readings)))

	// An edge ingest of a type whose ownership migrated to a sibling
	// is forwarded to the new owner instead of queueing for this
	// node's own flush; sequenced arrivals keep the local path so
	// their (origin, seq) mark commits atomically with acceptance.
	if origin == "" {
		if target := n.Route(b.TypeName); target != "" {
			// ingestRouted's batch record stores the readings on a
			// durable node; an in-RAM store appends here, as below.
			if err := n.ingestRouted(b, target); err != nil {
				return err
			}
			if n.dur.Journal == nil {
				if err := n.dur.Store(b); err != nil {
					return fmt.Errorf("fognode %s: ingest: %w", n.cfg.Spec.ID, err)
				}
			}
			n.observeAlerts(b)
			return nil
		}
	}

	// The enqueue is the durable acceptance gate and stores the
	// readings inside it: a journal-rejected ingest leaves no trace,
	// so the sender's retry cannot duplicate readings in the store. An
	// in-RAM store keeps no log to stay in step with, so on a node
	// without a journal the append runs here, after the shard lock is
	// released, and a long one holds up no other ingest of the shard.
	if err := n.enqueue(sh, b, origin, seq); err != nil {
		return err
	}
	if n.dur.Journal == nil {
		if err := n.dur.Store(b); err != nil {
			return fmt.Errorf("fognode %s: ingest: %w", n.cfg.Spec.ID, err)
		}
	}
	// Continuous queries evaluate incrementally here, on the accepted
	// batch — never by re-scanning the store.
	n.observeAlerts(b)
	return nil
}

// enqueue merges a filtered batch into the per-type pending buffer
// that the next flush will seal and move upward, applying the overflow
// bound (prolonged parent outage). On a durable node the acceptance is
// journaled first, under the shard lock, so the log's record order
// matches the buffer's reading order, and the store append runs under
// the record's journal mutex; a journal
// failure rejects the ingest (the sender retries) instead of accepting
// data the node cannot preserve. The delivery mark lands under the
// same lock: a checkpoint, which cuts under every shard lock, then
// never snapshots the readings without their mark.
func (n *Node) enqueue(sh *pendingShard, b *model.Batch, origin string, seq uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := n.journalBatch(sh, b, origin, seq); err != nil {
		return fmt.Errorf("fognode %s: ingest: %w", n.cfg.Spec.ID, err)
	}
	if n.cfg.MaxPendingReadings > 0 { // the one bound an ingest can cross
		n.boundLocked(sh, b.TypeName)
	}
	return nil
}

// applyBatch is recBatch's transition: on a durable node the store
// append the record is the log of, then the delivery mark and the
// pending buffer. The caller holds the shard lock and, live, the
// record's journal mutex.
func (n *Node) applyBatch(sh *pendingShard, b *model.Batch, origin string, seq uint64) error {
	if n.dur.Journal != nil {
		if err := n.dur.Store(b); err != nil {
			return err
		}
	}
	n.replay.Mark(origin, seq)
	n.bufferLocked(sh, b)
	return nil
}

// bufferLocked appends a batch's readings to its type's pending
// buffer. The caller holds the shard lock.
func (n *Node) bufferLocked(sh *pendingShard, b *model.Batch) {
	if cur, ok := sh.pending[b.TypeName]; ok {
		cur.Readings = append(cur.Readings, b.Readings...)
		return
	}
	cp := b.Clone()
	cp.NodeID = n.cfg.Spec.ID // upward batches carry this node's identity
	sh.pending[b.TypeName] = cp
}

// sealLocked freezes a push item onto its type's outbox, journaling
// the seal first. For an item absorbed from another node the journal
// append is the acceptance gate (gate set: a failure rejects the item
// and the sender retries); for this node's own seals it is best
// effort — a lost record degrades toward re-delivery under a fresh
// sequence, or a refired window, which the receiver's dedup absorbs,
// never toward loss. The caller holds the shard lock.
func (n *Node) sealLocked(sh *pendingShard, typ string, it item, gate bool) error {
	if rec := pushSealRecord(&it); !gate {
		n.dur.Journal.Note(rec)
	} else if err := n.dur.Journal.Write(rec); err != nil {
		return err
	}
	n.applyPushSeal(sh, typ, it)
	return nil
}

// applyPushSeal is recPushSeal's transition. Sealing this node's own
// summary empties the degrade buffer it froze; a push absorbed from
// another node lands with its delivery mark.
func (n *Node) applyPushSeal(sh *pendingShard, typ string, it item) {
	if it.origin == n.cfg.Spec.ID {
		if it.kind == transport.KindSummaryPush {
			delete(sh.degraded, typ)
		}
	} else {
		n.replay.Mark(it.origin, it.seq)
	}
	n.queueLocked(sh, typ, it)
}

// queueLocked queues an item behind its rank — or, an alert fold's
// re-seal, in place of the queued push of the same (kind, origin,
// seq) — keeping the counter past the item's sequence when it is
// this node's own. The caller holds the shard lock.
func (n *Node) queueLocked(sh *pendingShard, typ string, it item) {
	if it.origin == n.cfg.Spec.ID {
		n.noteSeq(it.seq)
	}
	q := sh.box(typ)
	if it.kind == transport.KindAlertPush {
		for i := range q.items {
			if p := &q.items[i]; p.kind == it.kind && p.origin == it.origin && p.seq == it.seq {
				*p = it
				return
			}
		}
	}
	q.put(it)
}

// sealPendingLocked freezes a type's whole pending buffer as one batch
// item under a fresh sequence. The seal record lands in the journal
// strictly after the acceptance records it covers and before any later
// ingest of the type. Returns the item sealed (zero if nothing was
// pending). The caller holds the shard lock.
func (n *Node) sealPendingLocked(sh *pendingShard, typ string) item {
	p := sh.pending[typ]
	if p == nil {
		return item{}
	}
	seq := n.seq.Add(1)
	n.dur.Journal.Note(sealRecord(typ, seq, len(p.Readings)))
	return n.applySeal(sh, typ, seq, len(p.Readings))
}

// applySeal is recSeal's transition: the head count readings of a
// type's pending buffer freeze under seq as one batch item. The live
// path seals the whole buffer; a log written by an older node may hold
// a seal of fewer readings than were pending, which replays as a head
// cut. The caller holds the shard lock.
func (n *Node) applySeal(sh *pendingShard, typ string, seq uint64, count int) item {
	n.noteSeq(seq)
	p := sh.pending[typ]
	if p == nil {
		return item{} // a seal of an empty buffer freezes nothing
	}
	b := p
	if count < len(p.Readings) {
		head := *p
		head.Readings = p.Readings[:count:count]
		p.Readings = p.Readings[count:]
		b = &head
	} else {
		delete(sh.pending, typ)
	}
	it := item{kind: transport.KindBatch, origin: b.NodeID, seq: seq, class: b.Category.String(), b: b}
	sh.box(typ).put(it)
	return it
}

// commitLocked journals that an item is no longer this node's
// responsibility — acknowledged upward, handed to a new owner, or
// dropped by its overflow policy — and drops it, so recovery does not
// resurrect it. Best effort: a lost record degrades toward
// re-delivery. The caller holds the shard lock.
func (n *Node) commitLocked(sh *pendingShard, typ string, it item) {
	n.journalCommit(typ, it.origin, it.seq)
	n.applyCommit(sh, typ, it.origin, it.seq)
}

// applyCommit is recItemCommit's transition: the item with the
// delivery identity leaves its outbox (a record written before
// commits carried an origin has none and matches by sequence alone).
// The sequence was this node's own even if its seal record was lost,
// so the counter stays past it: a fresh item must never reuse a
// sequence the parent already marked, which would be silently deduped
// there — loss, not re-delivery. The caller holds the shard lock.
func (n *Node) applyCommit(sh *pendingShard, typ, origin string, seq uint64) {
	if origin == "" || origin == n.cfg.Spec.ID {
		n.noteSeq(seq)
	}
	if q := sh.outbox[typ]; q != nil {
		q.drop(origin, seq)
	}
}

// boundLocked enforces the overflow policy of every kind (see
// kindTable) on the unclaimed part of a type's backlog. The caller
// holds the shard lock.
func (n *Node) boundLocked(sh *pendingShard, typ string) {
	q := sh.box(typ)
	if max := n.cfg.MaxPendingReadings; max > 0 {
		n.boundReadingsLocked(sh, typ, q, max)
	}
	for lo, hi := q.span(transport.KindSummaryPush); hi-lo > maxParkedPushes; hi-- {
		// The degrade tier is exhausted: raw shed is what is left.
		var push protocol.SummaryPush
		if err := protocol.DecodeJSON(q.items[lo].payload, &push); err == nil {
			n.shedReads.Add(push.Readings())
		}
		n.commitLocked(sh, typ, q.items[lo])
	}
	for lo, hi := q.span(transport.KindAlertPush); hi-lo > maxParkedPushes; hi-- {
		n.foldAlertLocked(sh, typ, q, lo)
	}
}

// boundReadingsLocked trims a type's buffered readings to max, oldest
// first: the heads of the parked batch items, then the pending
// buffer's head — never the outbox's head item, which may already have
// reached the parent (trimOldest), so the bound can trim less. Without
// DegradeToSummary the trimmed readings are shed; those trimmed from
// parked items are additionally counted as DroppedDuringOutage: they
// were lost because the parent stayed unreachable past the buffer
// budget, the signal operators alarm on. With DegradeToSummary they
// fold into the type's degrade buffer instead (resolution lost, counts
// preserved). The trim is journaled (best effort: losing the record
// degrades toward re-delivery, never toward loss).
func (n *Node) boundReadingsLocked(sh *pendingShard, typ string, q *outbox, max int) {
	p := sh.pending[typ]
	total := 0
	if p != nil {
		total = len(p.Readings)
	}
	for lo, hi := q.span(transport.KindBatch); lo < hi; lo++ {
		total += len(q.items[lo].b.Readings)
	}
	drop := total - max
	if drop <= 0 {
		return
	}
	n.journalShed(typ, drop, q.claimed)
	trimmed, parked := n.applyShed(sh, typ, drop, q.claimed)
	if n.cfg.DegradeToSummary {
		n.degradedReads.Add(trimmed)
	} else {
		n.shedReads.Add(trimmed)
		n.outageDrops.Add(parked)
	}
}

// applyShed is recShed's transition: the oldest drop readings behind
// the outbox's head and its first claimed items are trimmed and
// dropped or, on a degrading node, folded into the type's degrade
// buffer. It reports how many it trimmed and how many of those came
// from parked items, for the live path's counters. The caller holds
// the shard lock.
func (n *Node) applyShed(sh *pendingShard, typ string, drop, claimed int) (trimmed, parked int64) {
	p := sh.pending[typ]
	sh.box(typ).trimOldest(p, claimed, drop, func(b *model.Batch, k int, isParked bool) {
		if n.cfg.DegradeToSummary {
			sh.degradeBufLocked(typ, b.Category).foldAll(b.Readings[:k])
		}
		trimmed += int64(k)
		if isParked {
			parked += int64(k)
		}
	})
	if p != nil && len(p.Readings) == 0 {
		delete(sh.pending, typ)
	}
	return trimmed, parked
}

// ShedReadings reports how many buffered readings were dropped under
// the MaxPendingReadings bound.
func (n *Node) ShedReadings() int64 { return n.shedReads.Value() }

// DroppedDuringOutage reports how many readings the bound shed from
// parked batch items — data lost because the parent stayed unreachable
// longer than the configured buffer budget could absorb.
func (n *Node) DroppedDuringOutage() int64 { return n.outageDrops.Value() }

// RelayedBatches reports how many batches reached the hierarchy
// through a sibling relay instead of the parent.
func (n *Node) RelayedBatches() int64 { return n.relayedBatches.Value() }

// DuplicateBatches reports how many at-least-once duplicate
// deliveries this node's receive path suppressed.
func (n *Node) DuplicateBatches() int64 { return n.dur.Duplicates() }

// DeferredFlushes reports how many flushes the backoff gate skipped
// outright (parent inside its retry window, no relay available).
func (n *Node) DeferredFlushes() int64 { return n.deferredFlushes.Value() }

// UpstreamState reports the parent-link state machine's mode
// (healthy, backoff or relay).
func (n *Node) UpstreamState() UpstreamState { return n.up.state() }

// PendingBatches returns how many delivery units await an upward
// flush: the per-type pending buffers, every item on an outbox, and
// each nonempty degrade buffer.
func (n *Node) PendingBatches() int {
	total := 0
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		total += len(sh.pending)
		for _, q := range sh.outbox {
			total += len(q.items)
		}
		for _, buf := range sh.degraded {
			if len(buf.windows) > 0 {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// PendingReadings returns how many readings are buffered for upward
// delivery across all types (pending buffers + batch items) — the
// quantity MaxPendingReadings bounds per type.
func (n *Node) PendingReadings() int {
	total := 0
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for _, b := range sh.pending {
			total += len(b.Readings)
		}
		for _, q := range sh.outbox {
			for k := range q.items {
				if b := q.items[k].b; b != nil {
					total += len(b.Readings)
				}
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// Latest serves the real-time read path.
func (n *Node) Latest(sensorID string) (model.Reading, bool) {
	return n.store.Latest(sensorID)
}

// Query serves range reads from the temporal store.
func (n *Node) Query(typeName string, from, to time.Time) []model.Reading {
	return n.store.QueryRange(typeName, from, to)
}

// QueryPage serves one bounded page of a range read: at most
// min(limit, protocol.DefaultPageLimit) readings plus the cursor
// resuming the scan. It implements query.LocalStore.
func (n *Node) QueryPage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	return store.Page(n.store, typeName, from, to, limit, cursor)
}

// Tags returns the latest description tags for a type.
func (n *Node) Tags(typeName string) (describe.Tags, bool) {
	sh := n.shardFor(typeName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.tags[typeName]
	return t, ok
}

// DedupEliminatedShare reports the measured redundant share removed.
func (n *Node) DedupEliminatedShare() float64 { return n.deduper.EliminatedShare() }

// DedupStats returns the readings observed and kept by the
// redundant-data-elimination phase.
func (n *Node) DedupStats() (in, kept int64) { return n.deduper.Stats() }

// Flush seals all pending data and sends every queued item to the
// parent, compressed with the configured codec. Items that fail to
// send stay queued for the next flush. It also applies retention
// eviction. On a durable node a flush is also the checkpoint safe
// point: when the journal has grown past its snapshot threshold, the
// delivery state is folded into a snapshot and the log truncated.
func (n *Node) Flush(ctx context.Context) error { return n.flush(ctx, "") }

// FlushCategory moves only one category's pending data upward — the
// paper's per-data-class update-frequency policy ("the smart city
// business model can decide ... the frequency of updating to upper
// levels"). Other categories stay buffered for their own schedule.
func (n *Node) FlushCategory(ctx context.Context, cat model.Category) error {
	if !cat.Valid() {
		return fmt.Errorf("fognode %s: flush: invalid category %d", n.cfg.Spec.ID, int(cat))
	}
	return n.flush(ctx, cat.String())
}

// Checkpoint folds a durable node's delivery state — pending and
// degrade buffers, outboxes, sequence counter, replay-filter marks,
// subscriptions — into a snapshot and truncates the journal, bounding
// recovery time. It is a no-op on an in-memory node. Checkpoints
// exclude senders (see flightMu) and hold every shard lock while
// encoding, so the snapshot is a consistent cut.
func (n *Node) Checkpoint() error {
	if n.dur.Journal == nil {
		return nil
	}
	n.flightMu.Lock()
	defer n.flightMu.Unlock()
	for i := range n.shards {
		n.shards[i].mu.Lock()
	}
	defer func() {
		for i := range n.shards {
			n.shards[i].mu.Unlock()
		}
	}()
	if err := n.dur.Checkpoint(func(dst []byte) ([]byte, error) {
		return encodeNodeSnapshot(dst, n.seq.Load(), n.replay.Dump(), n.shards, n.cqe.Snapshot())
	}); err != nil {
		return fmt.Errorf("fognode %s: checkpoint: %w", n.cfg.Spec.ID, err)
	}
	return nil
}

// maybeCheckpoint runs an automatic checkpoint when the journal has
// grown past its snapshot threshold. Errors are deliberately dropped:
// the journal keeps growing and the next safe point retries.
func (n *Node) maybeCheckpoint() {
	if _, due := n.dur.Journal.CheckpointDue(); due {
		_ = n.Checkpoint()
	}
}

// errDeferred marks a delivery skipped because the parent link is
// inside its backoff window and no sibling relay is available. The
// item stays queued; the flush reports success (nothing was lost,
// nothing was attempted).
var errDeferred = errors.New("fognode: delivery deferred by backoff")

// flush seals the pending and degrade buffers of the given class ("" =
// all) onto their outboxes, then drains every outbox of the class
// upward with a bounded worker pool, one type per worker at a time.
// It runs as a sender (flightMu), evicts past retention, and then, out
// of the senders' side, takes a checkpoint if one is due.
func (n *Node) flush(ctx context.Context, class string) error {
	defer n.maybeCheckpoint()
	n.flightMu.RLock()
	defer n.flightMu.RUnlock()
	defer n.store.Evict(n.cfg.Clock.Now())

	now := n.cfg.Clock.Now()
	if !n.up.attemptAllowed(now) {
		// Inside the backoff window with no relay available: keep
		// everything queued and do not burn an attempt.
		n.deferredFlushes.Inc()
		return nil
	}

	// Close and seal continuous-query windows that ended before this
	// flush, so their alert pushes ride the same round.
	n.harvestAlerts(now)

	var types []string
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for typ, p := range sh.pending {
			if class == "" || p.Category.String() == class {
				n.sealPendingLocked(sh, typ)
			}
		}
		for typ, buf := range sh.degraded {
			if len(buf.windows) > 0 && (class == "" || buf.category.String() == class) {
				n.sealSummaryLocked(sh, typ, buf)
			}
		}
		for typ, q := range sh.outbox {
			// A type's items all carry the type's one category.
			if len(q.items) > 0 && (class == "" || q.items[0].class == class) {
				types = append(types, typ)
			}
		}
		sh.mu.Unlock()
	}
	if len(types) == 0 {
		return nil
	}
	// Deterministic send/error order for tests and accounting.
	sort.Strings(types)

	// One worker takes the types one at a time in sorted order, which
	// keeps FlushWorkers 1 deterministic.
	errs := make([]error, len(types))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(n.cfg.FlushWorkers, len(types)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := n.getScratch()
			defer n.putScratch(sc)
			for i := range jobs {
				errs[i] = n.drain(ctx, types[i], now, sc)
			}
		}()
	}
	for i := range types {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}

// drain is the one send loop: under the type's send lock it delivers
// the items queued when it started, head first, claiming each for the
// duration of its send and removing it only once acknowledged. The
// first failure stops the loop with the tail — failed item included —
// still queued in order, and re-applies the overflow bound the claim
// had held off. A backoff deferral is not an error.
func (n *Node) drain(ctx context.Context, typ string, now time.Time, sc *flushScratch) error {
	sh := n.shardFor(typ)
	sh.mu.Lock()
	q := sh.box(typ)
	todo := len(q.items)
	sh.mu.Unlock()
	q.sendMu.Lock()
	defer q.sendMu.Unlock()
	for ; todo > 0; todo-- {
		sh.mu.Lock()
		if len(q.items) == 0 { // sent by the sender before us, or trimmed away
			sh.mu.Unlock()
			return nil
		}
		it := q.items[0]
		q.claimed = 1
		sh.mu.Unlock()

		payload, err := n.sealItem(sc, sc.payload[:0], &it, now)
		if err == nil {
			if it.b != nil {
				sc.payload = payload // keep the grown buffer for the next seal
			}
			err = n.deliver(ctx, it.kind, it.class, payload)
		}

		sh.mu.Lock()
		q.claimed = 0
		if err != nil {
			n.boundLocked(sh, typ)
			sh.mu.Unlock()
			if errors.Is(err, errDeferred) {
				return nil
			}
			n.flushErrors.Inc()
			return fmt.Errorf("fognode %s: flush %s: %w", n.cfg.Spec.ID, typ, err)
		}
		n.commitLocked(sh, typ, it)
		sh.mu.Unlock()
	}
	return nil
}

// sealItem returns an item's wire payload. A batch item is sealed now,
// into dst: concurrent child flushes interleave arrival order at a
// combining layer-2 node, and sorting at seal time restores time order
// so upward payloads — and their compressed sizes — are deterministic
// for a given set of readings. A push item's payload was frozen when
// it was sealed.
func (n *Node) sealItem(sc *flushScratch, dst []byte, it *item, now time.Time) ([]byte, error) {
	if it.b == nil {
		return it.payload, nil
	}
	sortBatchReadings(it.b)
	it.b.Collected = now
	return sc.sealer.SealSeq(dst, it.b, n.cfg.Codec, it.seq)
}

// deliver is the one send path: it runs the failover policy for one
// item's payload — probe the parent when the backoff window allows,
// fall over to sibling relays (kinds that may, see kindTable) once the
// failure threshold is crossed, and defer when neither is available.
// A parent success heals the state machine.
func (n *Node) deliver(ctx context.Context, kind transport.Kind, class string, payload []byte) error {
	if n.cfg.Spec.Parent == "" {
		return fmt.Errorf("%w: %s", ErrNoParent, n.cfg.Spec.ID)
	}
	if n.cfg.Transport == nil {
		return fmt.Errorf("fognode %s: no transport configured", n.cfg.Spec.ID)
	}
	r := rank(kind)
	now := n.cfg.Clock.Now()
	msg := transport.Message{
		From:    n.cfg.Spec.ID,
		To:      n.cfg.Spec.Parent,
		Kind:    kind,
		Class:   class,
		Payload: payload,
	}
	var parentErr error
	if n.up.parentDue(now) {
		if _, err := n.cfg.Transport.Send(ctx, msg); err == nil {
			n.up.onParentSuccess()
			n.sent[r].Inc()
			n.flushedBytes.Add(msg.WireSize())
			return nil
		} else if errors.Is(err, transport.ErrBackpressure) || transport.IsOverload(err) {
			// Backpressure (window full) and overload (parent's
			// admission queue full) are not failure: the parent is
			// alive but saturated. Keep the item queued and defer to
			// the next flush — escalating to sibling relays would only
			// shift the overload sideways.
			n.deferredFlushes.Inc()
			return errDeferred
		} else {
			parentErr = err
			n.up.onParentFailure(now)
		}
	}
	var targets []string
	if kindTable[r].relay {
		targets = n.up.relayTargets()
	}
	if len(targets) == 0 {
		if parentErr != nil {
			return parentErr
		}
		return errDeferred
	}
	var relayErrs []error
	msg.Kind = transport.KindRelay // same payload: the item keeps its identity
	for _, sibling := range targets {
		msg.To = sibling
		if _, err := n.cfg.Transport.Send(ctx, msg); err == nil {
			n.relayedBatches.Inc()
			n.sent[r].Inc()
			n.flushedBytes.Add(msg.WireSize())
			return nil
		} else {
			relayErrs = append(relayErrs, err)
		}
	}
	if parentErr != nil {
		relayErrs = append([]error{parentErr}, relayErrs...)
	}
	return fmt.Errorf("parent and %d sibling relays failed: %w", len(targets), errors.Join(relayErrs...))
}

// Status reports the node's state.
func (n *Node) Status() protocol.StatusResponse {
	st := n.store.Stats()
	return protocol.StatusResponse{
		NodeID:          n.cfg.Spec.ID,
		Layer:           n.cfg.Spec.Layer.String(),
		StoredReadings:  st.Readings,
		StoredSeries:    st.Series,
		PendingBatches:  n.PendingBatches(),
		IngestedBatches: n.ingestedBatches.Value(),
		DedupEliminated: n.DedupEliminatedShare(),
	}
}

var _ transport.Handler = (*Node)(nil)

// Handle implements transport.Handler: child batches, degraded
// summary pushes, sibling relay requests, queries and control
// commands. With a scheduler configured, every message first passes
// the per-class weighted-fair admission gate, so a query is served by
// its 8x share of this node's handler capacity even while bulk ingest
// saturates it; an overflowing class is rejected fast with the typed
// overload error, which senders treat like backpressure.
func (n *Node) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	if n.sched != nil {
		release, err := n.sched.Admit(ctx, transport.ClassNameOf(msg.Kind), int64(len(msg.Payload)))
		if err != nil {
			if errors.Is(err, sched.ErrOverloaded) {
				return nil, fmt.Errorf("fognode %s: %w", n.cfg.Spec.ID, transport.ErrOverloaded)
			}
			return nil, err
		}
		defer release()
	}
	switch msg.Kind {
	case transport.KindBatch:
		b, _, seq, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
		if err != nil {
			return nil, err
		}
		// The ingest journals the (origin, seq) mark atomically with
		// the acceptance on a durable node.
		return n.dur.Accept(b.NodeID, seq, func() error { return n.ingest(b, b.NodeID, seq) })
	case transport.KindSummaryPush:
		return n.handleSummaryPush(msg.Payload)
	case transport.KindAlertPush:
		return n.handleAlertPush(msg.Payload)
	case transport.KindRelay:
		return n.handleRelay(ctx, msg)
	case transport.KindMigrate:
		return n.handleMigrate(msg)
	case transport.KindQuery, transport.KindSummary:
		return store.Serve(n.store, n.cfg.Spec.ID, msg.Kind, msg.Payload)
	case transport.KindControl:
		return n.handleControl(ctx, msg.Payload)
	default:
		return nil, fmt.Errorf("fognode %s: unsupported message kind %q", n.cfg.Spec.ID, msg.Kind)
	}
}

// handleRelay is the receiving half of sibling failover: a peer whose
// parent is unreachable hands us a sealed batch, and we forward it to
// our own parent unchanged — same payload bytes, so the batch keeps
// its origin identity and delivery sequence and the parent's replay
// filter can still dedupe it against a direct retry. Relays are never
// forwarded to another sibling, so a relay can traverse at most one
// extra hop and cannot loop.
func (n *Node) handleRelay(ctx context.Context, msg transport.Message) ([]byte, error) {
	if n.cfg.Spec.Parent == "" {
		return nil, fmt.Errorf("fognode %s: cannot relay: no parent", n.cfg.Spec.ID)
	}
	if n.cfg.Transport == nil {
		return nil, fmt.Errorf("fognode %s: cannot relay: no transport", n.cfg.Spec.ID)
	}
	if _, err := n.cfg.Transport.Send(ctx, transport.Message{
		From:    n.cfg.Spec.ID,
		To:      n.cfg.Spec.Parent,
		Kind:    transport.KindBatch,
		Class:   msg.Class,
		Payload: msg.Payload,
	}); err != nil {
		return nil, fmt.Errorf("fognode %s: relay to %s: %w", n.cfg.Spec.ID, n.cfg.Spec.Parent, err)
	}
	return []byte("ok"), nil
}

func (n *Node) handleControl(ctx context.Context, payload []byte) ([]byte, error) {
	var req protocol.ControlRequest
	if err := protocol.DecodeJSON(payload, &req); err != nil {
		return nil, err
	}
	switch req.Op {
	case protocol.OpFlush:
		if err := n.Flush(ctx); err != nil {
			return nil, err
		}
		return []byte("flushed"), nil
	case protocol.OpStatus:
		return protocol.EncodeJSON(n.Status())
	case protocol.OpMetrics:
		return protocol.EncodeJSON(n.cfg.Registry.Export())
	case protocol.OpRoutes:
		return protocol.EncodeJSON(protocol.RoutesResponse{
			NodeID:               n.cfg.Spec.ID,
			Routes:               n.Routes(),
			MigratedOutTransfers: n.MigratedOutTransfers(),
			MigratedOutReadings:  n.MigratedOutReadings(),
			MigratedOutBytes:     n.MigratedOutBytes(),
			MigratedInTransfers:  n.MigratedInTransfers(),
			MigratedInReadings:   n.MigratedInReadings(),
		})
	case protocol.OpSubscribe:
		var sub cq.Subscription
		if err := protocol.DecodeJSON(req.Sub, &sub); err != nil {
			return nil, fmt.Errorf("fognode %s: subscribe: %w", n.cfg.Spec.ID, err)
		}
		if req.Remove {
			if !n.Unsubscribe(sub.ID) {
				return []byte("absent"), nil
			}
			return []byte("unsubscribed"), nil
		}
		if err := n.Subscribe(sub); err != nil {
			return nil, err
		}
		return []byte("subscribed"), nil
	case protocol.OpSubscriptions:
		subs := n.Subscriptions()
		resp := protocol.SubscriptionsResponse{NodeID: n.cfg.Spec.ID}
		for i := range subs {
			doc, err := protocol.EncodeJSON(subs[i])
			if err != nil {
				return nil, err
			}
			resp.Subs = append(resp.Subs, doc)
		}
		return protocol.EncodeJSON(resp)
	default:
		return nil, fmt.Errorf("fognode %s: unknown control op %q", n.cfg.Spec.ID, req.Op)
	}
}
