// Package cloud implements the top layer of the F2C hierarchy: the
// permanent data-preservation block (classification + archive), deep
// historical processing over the whole city's data, and the
// data-dissemination phase as an open-data HTTP interface (paper
// §IV.B: "these phases are not urgent and ... executed at the cloud
// level, where the permanent storage is performed").
package cloud

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/store"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// Config configures the cloud node.
type Config struct {
	// ID is the endpoint name (conventionally "cloud").
	ID string
	// City names the deployment.
	City string
	// Clock provides time (virtual in simulations).
	Clock sim.Clock
	// Registry receives metrics; nil allocates a private one.
	Registry *metrics.Registry
	// Codec compresses query response pages travelling back down the
	// WAN (default zip, matching the upward path).
	Codec aggregate.Codec
	// MaxQueryPage bounds how many readings one query response may
	// carry; historical scans (KindQuery and open data) stream in
	// cursor-linked pages. Zero selects protocol.DefaultPageLimit.
	MaxQueryPage int
	// ReplayWindow bounds how many recently preserved batch sequences
	// the cloud remembers per origin for at-least-once dedup. Zero
	// selects protocol.DefaultReplayWindow.
	ReplayWindow int
	// Scheduler, when set, gates the cloud's handler path with the
	// per-class weighted-fair admission scheduler, mirroring the fog
	// tiers: historical queries keep their share of the cloud's
	// capacity while the whole city's ingest converges on it.
	Scheduler *sched.Options
	// Retention, when > 0, runs the data-destruction phase
	// automatically: archived records older than Retention are expired
	// periodically on the ingest path (the paper's "unless any expiry
	// time is defined" — the cloud preset is years, configured per
	// deployment). Zero preserves permanently.
	Retention time.Duration
	// Durability and Storage make the cloud durable, and are set
	// together or not at all (ErrStorageMode): a data dir is a journal
	// plus a segment store. Durability journals every preserved batch
	// (and every data-destruction cutoff) to a write-ahead log with
	// periodic snapshots in Durability.Dir, and recovers the archive
	// and the replay-filter marks from it at construction. Storage
	// holds the query series — the one copy of the readings that every
	// range read, open data included, is served from — in the tiered
	// segment engine, which recovers itself. Each preserve is numbered
	// and the number journaled with the batch, so recovery replays the
	// journal tail into the store exactly once. Storage's Registry and
	// MetricsPrefix default from the cloud config when zero; its
	// Retention stays 0 (permanent) unless set. Both nil (the default)
	// keeps the node fully in-memory, on a permanent in-RAM TimeSeries.
	Durability *wal.Config
	Storage    *segment.Options
}

// ErrStorageMode refuses a cloud configured with only one of
// Durability and Storage.
var ErrStorageMode = errors.New("cloud: Durability and Storage must be set together: a data dir is a journal plus a segment store")

// querySeries is the cloud's one query series: the permanent in-RAM
// TimeSeries or the durable segment.Store. AppendSeq carries the
// preserve number used to dedupe journal replay into the self-durable
// store; the RAM store ignores it.
type querySeries interface {
	store.Series
	AppendSeq(b *model.Batch, seq uint64) error
}

// ramSeries adapts store.TimeSeries to querySeries: preserve numbers
// exist only to make journal replay idempotent, and an in-RAM cloud
// has no journal.
type ramSeries struct{ *store.TimeSeries }

func (r ramSeries) AppendSeq(b *model.Batch, _ uint64) error { return r.Append(b) }

// Node is the cloud layer. Safe for concurrent use.
type Node struct {
	cfg     Config
	archive *store.Archive
	series  querySeries
	// journal and segStore are the durable pair, both nil on an
	// in-RAM cloud. segStore aliases series: it owns on-disk state
	// closed with the node, and it recovers itself, so journal replay
	// dedupes against its preserve-number watermark.
	journal  *cloudJournal
	segStore *segment.Store
	replay   *protocol.ReplayFilter
	// preserveSeq numbers accepted batches 1, 2, ... in journal order;
	// guarded by journal.mu (never advanced on a journal-less cloud,
	// where replay cannot happen and number 0 means "unnumbered").
	preserveSeq uint64

	// sched gates the handler path per traffic class (nil = off).
	sched *sched.Scheduler
	// sumMu guards degraded: per-type window summaries pushed up by
	// degrading fog nodes — the reduced-resolution record of readings
	// the edge could not afford to ship raw. Kept in memory (summaries
	// are the overload fallback, not the archive of record).
	sumMu    sync.Mutex
	degraded map[string]map[int64]aggregate.WindowSummary
	// expireTick counts preserves toward the next automatic retention
	// sweep (guarded by sumMu; cadence only, no correctness).
	expireTick int

	// alertMu guards alerts: fired continuous-query results keyed by
	// instance identity (Alert.Key). Push-level retries are caught by
	// the replay filter; the instance key additionally absorbs the
	// same fire arriving under two delivery identities (retry-queue
	// folding, post-crash refires), which is what makes alert delivery
	// exactly-once end to end. Lock order: journal.mu before alertMu.
	alertMu sync.Mutex
	alerts  map[string]protocol.Alert

	ingestedBatches *metrics.Counter
	ingestedReads   *metrics.Counter
	dupBatches      *metrics.Counter
	degradedReads   *metrics.Counter
	alertsStored    *metrics.Counter
	dupAlerts       *metrics.Counter
}

// New builds a cloud node.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cloud: config needs an id")
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.WallClock{}
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.City == "" {
		cfg.City = "city"
	}
	if cfg.Codec == 0 {
		cfg.Codec = aggregate.CodecZip
	}
	if !cfg.Codec.Valid() {
		return nil, fmt.Errorf("cloud: invalid codec %d", int(cfg.Codec))
	}
	if cfg.MaxQueryPage <= 0 {
		cfg.MaxQueryPage = protocol.DefaultPageLimit
	}
	if (cfg.Durability == nil) != (cfg.Storage == nil) {
		return nil, ErrStorageMode
	}
	n := &Node{
		cfg:             cfg,
		archive:         store.NewArchive(),
		replay:          protocol.NewReplayFilter(cfg.ReplayWindow),
		degraded:        make(map[string]map[int64]aggregate.WindowSummary),
		alerts:          make(map[string]protocol.Alert),
		ingestedBatches: cfg.Registry.Counter(cfg.ID + ".ingest.batches"),
		ingestedReads:   cfg.Registry.Counter(cfg.ID + ".ingest.readings"),
		dupBatches:      cfg.Registry.Counter(cfg.ID + ".ingest.duplicates"),
		degradedReads:   cfg.Registry.Counter(cfg.ID + ".ingest.degraded_readings"),
		alertsStored:    cfg.Registry.Counter(cfg.ID + ".alerts.instances"),
		dupAlerts:       cfg.Registry.Counter(cfg.ID + ".alerts.duplicates"),
	}
	if cfg.Scheduler != nil {
		n.sched = sched.New(*cfg.Scheduler, cfg.Clock, cfg.Registry, cfg.ID+".sched.")
	}
	if cfg.Durability == nil {
		n.series = ramSeries{store.NewTimeSeries(0)} // permanent
		return n, nil
	}
	so := *cfg.Storage
	if so.Registry == nil {
		so.Registry = cfg.Registry
	}
	if so.MetricsPrefix == "" {
		so.MetricsPrefix = cfg.ID + "."
	}
	_, statErr := os.Stat(so.Dir)
	gs, err := segment.Open(so)
	if err != nil {
		return nil, fmt.Errorf("cloud: storage: %w", err)
	}
	n.series, n.segStore = gs, gs
	j, err := openCloudJournal(*cfg.Durability)
	if err == nil {
		if err = n.recoverJournal(j); err != nil {
			_ = j.close()
		}
	}
	if err != nil {
		// A refused boot leaves the data dir as it found it: a store
		// directory this call created is removed again.
		gs.Discard()
		if os.IsNotExist(statErr) {
			_ = os.RemoveAll(so.Dir)
		}
		return nil, fmt.Errorf("cloud: %w", err)
	}
	n.journal = j
	return n, nil
}

// recoverJournal rebuilds the archive and the replay-filter marks from
// a journal — snapshot records first, then the log tail's preserves
// and expires in order — and replays the tail into the segment store.
// Metrics are not re-counted — recovered batches were accounted by
// their first life.
func (n *Node) recoverJournal(j *cloudJournal) error {
	rs := &cloudRecovery{}
	if err := decodeCloudSnapshot(j.store.Snapshot(), rs); err != nil {
		return err
	}
	for _, rec := range j.store.Records() {
		if err := rs.applyRecord(rec); err != nil {
			return err
		}
	}
	// Snapshot records are not replayed into the series: preserve
	// completes the series append before releasing the journal mutex a
	// checkpoint needs, so every batch a snapshot folded in was already
	// in the segment store's own WAL when the snapshot was cut, and
	// Open recovered it. Enforce it: a snapshot that folded preserves
	// the store never applied means the journal was written without a
	// segment store (or store/ was removed), and serving on would
	// answer range queries short.
	if len(rs.records) > 0 && n.segStore.AppliedSeq() < rs.preserveSeq {
		return fmt.Errorf("storage mode mismatch: the journal in %s holds %d archived batches up to preserve #%d, but the segment store in %s recovered only up to #%d — the directory was written without a segment store, or its store/ was removed, and a durable cloud serves the two together only",
			n.cfg.Durability.Dir, len(rs.records), rs.preserveSeq, n.segStore.Dir(), n.segStore.AppliedSeq())
	}
	now := n.cfg.Clock.Now()
	counter := rs.preserveSeq
	for _, rec := range rs.records {
		if _, err := n.archive.Put(rec.batch, rec.provenance, now); err != nil {
			return err
		}
	}
	for _, a := range rs.alerts {
		n.alerts[a.Key()] = a
	}
	for _, op := range rs.tail {
		if op.alerts != nil {
			// The tail is the crash window: the record landed but the
			// in-memory apply may not have. storeAlerts dedupes by
			// instance key, so replay over the snapshot is exactly-once.
			n.storeAlerts(op.alerts, false)
			continue
		}
		if op.batch != nil {
			pseq := op.pseq
			if pseq == 0 { // pre-numbering record: assign in log order
				counter++
				pseq = counter
			} else if pseq > counter {
				counter = pseq
			}
			if _, err := n.archive.Put(op.batch, provenanceOf(op.batch.NodeID, op.from, n.cfg.ID), now); err != nil {
				return err
			}
			// The tail is the crash window: the journal append landed
			// but the series append may not have. AppendSeq re-applies
			// it; the segment store drops preserve numbers at or below
			// its recovered watermark, so replay is exactly-once.
			if err := n.series.AppendSeq(op.batch, pseq); err != nil {
				return err
			}
		} else {
			n.archive.Expire(op.before)
			n.series.EvictBefore(op.before)
		}
	}
	n.preserveSeq = counter
	for _, m := range rs.marks {
		n.replay.Mark(m.origin, m.seq)
	}
	return nil
}

// DuplicateBatches reports how many at-least-once duplicate
// deliveries the cloud's receive path suppressed.
func (n *Node) DuplicateBatches() int64 { return n.dupBatches.Value() }

// ID returns the endpoint name.
func (n *Node) ID() string { return n.cfg.ID }

// Archive exposes the classified permanent store (read-side).
func (n *Node) Archive() *store.Archive { return n.archive }

// Preserve runs the preservation block on an arriving batch:
// classification (category/type/day indexing), lineage recording, and
// permanent archiving. On a durable cloud the batch is journaled
// before it is applied.
func (n *Node) Preserve(b *model.Batch, from string) error {
	return n.preserve(b, from, 0)
}

// preserve journals (durable mode), archives and — when the batch
// carried a delivery sequence — marks the replay filter, all under
// the journal mutex so a checkpoint always sees log and state agree.
// Journaling the mark with the batch closes the recovery hole of
// separate records: a recovered cloud either has both the batch and
// its dedup mark or neither, so a sender's retry is either recognized
// or re-preserves exactly once.
func (n *Node) preserve(b *model.Batch, from string, seq uint64) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("cloud preserve: %w", err)
	}
	var pseq uint64
	if n.journal != nil {
		n.journal.mu.Lock()
		defer n.journal.mu.Unlock()
		n.preserveSeq++
		pseq = n.preserveSeq
		if err := n.journal.appendPreserveLocked(pseq, seq, from, b); err != nil {
			n.preserveSeq-- // unjournaled number: reuse it
			return fmt.Errorf("cloud preserve: %w", err)
		}
	}
	now := n.cfg.Clock.Now()
	if _, err := n.archive.Put(b, provenanceOf(b.NodeID, from, n.cfg.ID), now); err != nil {
		return fmt.Errorf("cloud preserve: %w", err)
	}
	if err := n.series.AppendSeq(b, pseq); err != nil {
		return fmt.Errorf("cloud preserve: %w", err)
	}
	if seq != 0 {
		n.replay.Mark(b.NodeID, seq)
	}
	n.ingestedBatches.Inc()
	n.ingestedReads.Add(int64(len(b.Readings)))
	return nil
}

// accept is the one receive path for everything that arrives under a
// delivery identity — batches, alert pushes, summary pushes: a copy of
// a delivery that already landed is acknowledged without applying it,
// and check-and-mark is atomic (protocol.ReplayFilter.Accept). The
// filter is keyed by the delivery's origin, not the hop that carried
// it, so a copy arriving through a sibling relay and a direct retry
// dedupe against each other.
func (n *Node) accept(origin string, seq uint64, apply func() error) ([]byte, error) {
	dup, err := n.replay.Accept(origin, seq, apply)
	if err != nil {
		return nil, err
	}
	if dup {
		n.dupBatches.Inc()
	}
	return []byte("ok"), nil
}

// acceptSummaryPush folds a degraded summary push into the cloud's
// per-type window summaries, deduped by (origin, seq) exactly like
// batches. The windows merge decomposably, so retries and multi-hop
// re-emissions (fog1 -> fog2 -> cloud) converge to the same totals.
func (n *Node) acceptSummaryPush(push protocol.SummaryPush) {
	n.sumMu.Lock()
	wins, ok := n.degraded[push.TypeName]
	if !ok {
		wins = make(map[int64]aggregate.WindowSummary)
		n.degraded[push.TypeName] = wins
	}
	for _, w := range push.Windows {
		cur, ok := wins[w.StartUnix]
		if !ok {
			cur = aggregate.WindowSummary{
				Start: time.Unix(0, w.StartUnix), End: time.Unix(0, w.EndUnix),
			}
		}
		cur.Summary = cur.Summary.Merge(w.Summary)
		wins[w.StartUnix] = cur
	}
	n.sumMu.Unlock()
	n.degradedReads.Add(push.Readings())
}

// acceptAlertPush journals (durable mode), stores and marks one
// decoded alert push, all under the journal mutex so a checkpoint
// always sees log, alert store and replay filter agree — the same
// atomicity preserve gives batches. The payload is journaled verbatim:
// it already carries the (Origin, Seq) delivery identity and every
// instance identity, so one record recovers both the dedup mark and
// the stored alerts.
func (n *Node) acceptAlertPush(push *protocol.AlertPush, payload []byte) error {
	if n.journal != nil {
		n.journal.mu.Lock()
		defer n.journal.mu.Unlock()
		if err := n.journal.appendAlertLocked(payload); err != nil {
			return fmt.Errorf("cloud alert: %w", err)
		}
	}
	n.storeAlerts(push, true)
	n.replay.Mark(push.Origin, push.Seq)
	return nil
}

// storeAlerts folds a push's instances into the alert store, deduping
// by instance key. Recovery replays with counted=false: restored
// instances were accounted by their first life.
func (n *Node) storeAlerts(push *protocol.AlertPush, counted bool) {
	n.alertMu.Lock()
	for i := range push.Alerts {
		key := push.Alerts[i].Key()
		if _, ok := n.alerts[key]; ok {
			if counted {
				n.dupAlerts.Inc()
			}
			continue
		}
		n.alerts[key] = push.Alerts[i]
		if counted {
			n.alertsStored.Inc()
		}
	}
	n.alertMu.Unlock()
}

// AlertInstances returns every stored fired-alert instance in the
// deterministic (SubID, StartUnix, FiredBy, Kind) order — the cloud's
// exactly-once record of what the fog tier's standing queries fired.
func (n *Node) AlertInstances() []protocol.Alert {
	n.alertMu.Lock()
	out := make([]protocol.Alert, 0, len(n.alerts))
	for _, a := range n.alerts {
		out = append(out, a)
	}
	n.alertMu.Unlock()
	protocol.SortAlerts(out)
	return out
}

// DuplicateAlerts reports how many already-stored alert instances
// arrived again under a fresh delivery identity (retry-queue folding,
// post-crash refires) and were suppressed by instance-key dedup.
func (n *Node) DuplicateAlerts() int64 { return n.dupAlerts.Value() }

// DegradedReadings reports how many raw readings arrived at the cloud
// as degraded window summaries instead of raw batches.
func (n *Node) DegradedReadings() int64 { return n.degradedReads.Value() }

// DegradedSummaries returns a type's degraded windows in time order —
// the reduced-resolution record of what the edge folded away.
func (n *Node) DegradedSummaries(typeName string) []aggregate.WindowSummary {
	n.sumMu.Lock()
	defer n.sumMu.Unlock()
	wins := n.degraded[typeName]
	out := make([]aggregate.WindowSummary, 0, len(wins))
	for _, w := range wins {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// maybeExpire runs the automatic data-destruction sweep every ~1024
// preserves when Retention is configured. It is called from Handle
// after preserve has returned (never inside it: Expire takes the
// journal mutex preserve holds).
func (n *Node) maybeExpire() {
	if n.cfg.Retention <= 0 {
		return
	}
	n.sumMu.Lock()
	n.expireTick++
	due := n.expireTick >= 1024
	if due {
		n.expireTick = 0
	}
	n.sumMu.Unlock()
	if due {
		n.Expire(n.cfg.Clock.Now().Add(-n.cfg.Retention))
	}
}

// Historical returns archived readings of a type in [from, to] — the
// paper's historical data served to deep-processing applications.
func (n *Node) Historical(typeName string, from, to time.Time) []model.Reading {
	return n.series.QueryRange(typeName, from, to)
}

// HistoricalPage serves one bounded page of the historical scan: at
// most min(limit, MaxQueryPage) readings plus the cursor resuming the
// scan, so a query over the whole archive streams instead of
// materializing one unbounded response.
func (n *Node) HistoricalPage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	if limit <= 0 || limit > n.cfg.MaxQueryPage {
		limit = n.cfg.MaxQueryPage
	}
	return n.series.QueryRangePage(typeName, from, to, limit, cursor)
}

// Latest serves point lookups (slow path compared to fog layer 1: the
// data had to travel the whole hierarchy first).
func (n *Node) Latest(sensorID string) (model.Reading, bool) {
	return n.series.Latest(sensorID)
}

// Analyze runs the data-processing block over historical data: fixed
// time windows of decomposable summaries per type.
func (n *Node) Analyze(typeName string, from, to time.Time, window time.Duration) ([]aggregate.WindowSummary, error) {
	readings := n.Historical(typeName, from, to)
	byType, err := aggregate.WindowizeByType(readings, window)
	if err != nil {
		return nil, fmt.Errorf("cloud analyze: %w", err)
	}
	return byType[typeName], nil
}

// Expire runs the data-destruction phase: archived records collected
// before the cutoff are permanently removed ("data will be
// permanently preserved at cloud layer, unless any expiry time is
// defined"), and so are the query series' readings older than it, so
// Historical, KindQuery and open data stop serving them. Returns the
// number of destroyed records. The in-RAM series cuts exactly; the
// segment store drops whole segments, so one straddling the cutoff
// keeps serving its destroyed readings until a later cutoff passes
// its newest one. A durable cloud journals the cutoff so recovery
// does not resurrect destroyed records.
func (n *Node) Expire(before time.Time) int {
	if n.journal != nil {
		n.journal.mu.Lock()
		defer n.journal.mu.Unlock()
		_ = n.journal.appendExpireLocked(before)
	}
	destroyed := n.archive.Expire(before)
	n.series.EvictBefore(before)
	return destroyed
}

// Checkpoint folds a durable cloud's archive and replay-filter marks
// into a snapshot and truncates the journal, bounding recovery time.
// No-op on an in-memory cloud.
func (n *Node) Checkpoint() error {
	if n.journal == nil {
		return nil
	}
	n.journal.mu.Lock()
	defer n.journal.mu.Unlock()
	if n.journal.closed {
		return nil
	}
	recs := n.archive.Records()
	ars := make([]archivedRecord, len(recs))
	for i, r := range recs {
		ars[i] = archivedRecord{provenance: r.Provenance, batch: r.Batch}
	}
	data, err := encodeCloudSnapshot(nil, n.preserveSeq, n.replay.Dump(), ars, n.AlertInstances())
	if err != nil {
		return fmt.Errorf("cloud: checkpoint: %w", err)
	}
	if err := n.journal.store.WriteSnapshot(data); err != nil {
		return fmt.Errorf("cloud: checkpoint: %w", err)
	}
	return nil
}

// maybeCheckpoint runs an automatic checkpoint once the journal has
// grown past its snapshot threshold; errors are dropped and retried at
// the next preserve. Because a cloud snapshot rewrites the whole
// (permanent, ever-growing) archive, the trigger is geometric: the
// log tail must also be at least a quarter of the archive, so total
// checkpoint I/O stays linear in data preserved instead of quadratic.
func (n *Node) maybeCheckpoint() {
	if n.journal == nil {
		return
	}
	n.journal.mu.Lock()
	threshold := n.journal.store.SnapshotThreshold()
	appends := n.journal.store.AppendsSinceSnapshot()
	due := !n.journal.closed && threshold > 0 && appends >= threshold
	n.journal.mu.Unlock()
	if due && appends*4 >= n.archive.Len() {
		_ = n.Checkpoint()
	}
}

// Discard releases a durable cloud's journal file handle without a
// checkpoint — crash-semantics teardown for restart simulations; the
// on-disk state stays exactly as the last append left it.
func (n *Node) Discard() {
	if n.journal != nil {
		_ = n.journal.close()
		n.segStore.Discard()
	}
}

// Close writes a final checkpoint and closes the journal and the
// segment store of a durable cloud; an in-memory cloud closes as a
// no-op. Safe to call multiple times.
func (n *Node) Close() error {
	if n.journal == nil {
		return nil
	}
	err := n.Checkpoint()
	if cerr := n.journal.close(); err == nil {
		err = cerr
	}
	if cerr := n.segStore.Close(); err == nil {
		err = cerr
	}
	return err
}

// Status reports cloud state.
func (n *Node) Status() protocol.StatusResponse {
	st := n.series.Stats()
	return protocol.StatusResponse{
		NodeID:          n.cfg.ID,
		Layer:           "cloud",
		StoredReadings:  st.Readings,
		StoredSeries:    st.Series,
		IngestedBatches: n.ingestedBatches.Value(),
	}
}

var _ transport.Handler = (*Node)(nil)

// Handle implements transport.Handler for upward batches, degraded
// summary pushes, historical queries and control. With a scheduler
// configured, every message first passes the per-class weighted-fair
// admission gate (see fognode.Handle).
func (n *Node) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	if n.sched != nil {
		release, err := n.sched.Admit(ctx, transport.ClassNameOf(msg.Kind), int64(len(msg.Payload)))
		if err != nil {
			if errors.Is(err, sched.ErrOverloaded) {
				return nil, fmt.Errorf("cloud: %w", transport.ErrOverloaded)
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
		// preserve journals batch + mark as one record and marks the
		// filter itself, under the journal mutex, once archived.
		ack, err := n.accept(b.NodeID, seq, func() error { return n.preserve(b, msg.From, seq) })
		if err == nil {
			n.maybeCheckpoint()
			n.maybeExpire()
		}
		return ack, err
	case transport.KindAlertPush:
		push, err := protocol.DecodeAlertPush(msg.Payload)
		if err != nil {
			return nil, err
		}
		return n.accept(push.Origin, push.Seq, func() error { return n.acceptAlertPush(push, msg.Payload) })
	case transport.KindSummaryPush:
		var push protocol.SummaryPush
		if err := protocol.DecodeJSON(msg.Payload, &push); err != nil {
			return nil, err
		}
		if err := push.Validate(); err != nil {
			return nil, err
		}
		return n.accept(push.Origin, push.Seq, func() error {
			n.acceptSummaryPush(push)
			return nil
		})
	case transport.KindQuery:
		var req protocol.QueryRequest
		if err := protocol.DecodeJSON(msg.Payload, &req); err != nil {
			return nil, err
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		var page protocol.QueryPage
		if req.SensorID != "" {
			if r, ok := n.Latest(req.SensorID); ok {
				page.Found = true
				page.Readings = []model.Reading{r}
			}
		} else {
			from, to := req.Range()
			readings, next, err := n.HistoricalPage(req.TypeName, from, to, req.Limit, req.Cursor)
			if err != nil {
				return nil, fmt.Errorf("cloud: query: %w", err)
			}
			page.Readings = readings
			page.NextCursor = next
			page.Found = len(readings) > 0 || next != ""
		}
		return protocol.EncodeQueryPage(n.cfg.ID, page, n.cfg.Codec)
	case transport.KindSummary:
		var req protocol.SummaryRequest
		if err := protocol.DecodeJSON(msg.Payload, &req); err != nil {
			return nil, err
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		from, to := req.Range()
		sum := aggregate.Summarize(n.Historical(req.TypeName, from, to))
		return protocol.EncodeJSON(protocol.SummaryResponse{Summary: sum})
	case transport.KindControl:
		var req protocol.ControlRequest
		if err := protocol.DecodeJSON(msg.Payload, &req); err != nil {
			return nil, err
		}
		switch req.Op {
		case protocol.OpStatus:
			return protocol.EncodeJSON(n.Status())
		case protocol.OpMetrics:
			return protocol.EncodeJSON(n.cfg.Registry.Export())
		default:
			return nil, fmt.Errorf("cloud: unsupported control op %q", req.Op)
		}
	default:
		return nil, fmt.Errorf("cloud: unsupported message kind %q", msg.Kind)
	}
}
