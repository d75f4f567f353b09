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
	"sort"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/durable"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sensor"
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
	// Durability gives the cloud a data dir: it journals every
	// preserved batch, every accepted alert and summary push, and every
	// data-destruction cutoff to a write-ahead log with periodic
	// snapshots in Durability.Dir, holds the query series — the one
	// copy of the readings that every range read, open data included,
	// is served from — in the tiered segment engine at <Dir>/store, and
	// recovers the archive, the series, the alert instances, the
	// degraded windows and the replay-filter marks at construction. The
	// journal is the series' only log (see internal/durable). Storage,
	// optional beside it, tunes the segment store; its Registry and
	// MetricsPrefix default from the cloud config when zero, and its
	// Retention stays 0 (permanent) unless set. Storage without
	// Durability is refused (durable.ErrStorageMode). Nil (the default)
	// keeps the node fully in-memory, on a permanent in-RAM TimeSeries.
	Durability *wal.Config
	Storage    *segment.Options
}

// Node is the cloud layer. Safe for concurrent use.
type Node struct {
	cfg     Config
	archive *store.Archive
	// series is the durable core's Series: the segment store on a
	// cloud with a data dir, else a permanent in-RAM TimeSeries.
	series store.Series
	// dur is the receive-side durable core: the journal (nil on an
	// in-RAM cloud), the series and the acceptance path over replay.
	dur    *durable.Core
	replay *protocol.ReplayFilter

	// sched gates the handler path per traffic class (nil = off).
	sched *sched.Scheduler
	// sumMu guards degraded: per-type window summaries pushed up by
	// degrading fog nodes — the reduced-resolution record of readings
	// the edge could not afford to ship raw. Held like the archive: a
	// durable cloud journals each accepted push and snapshots the
	// windows, so what it acknowledged survives a restart. Lock order:
	// journal mutex before sumMu.
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
	// exactly-once end to end. Lock order: journal mutex before alertMu.
	alertMu sync.Mutex
	alerts  map[string]protocol.Alert

	ingestedBatches *metrics.Counter
	ingestedReads   *metrics.Counter
	degradedReads   *metrics.Counter
	alertsStored    *metrics.Counter
	dupAlerts       *metrics.Counter
	expireErrors    *metrics.Counter
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
	n := &Node{
		cfg:             cfg,
		archive:         store.NewArchive(),
		replay:          protocol.NewReplayFilter(protocol.DefaultReplayWindow),
		degraded:        make(map[string]map[int64]aggregate.WindowSummary),
		alerts:          make(map[string]protocol.Alert),
		ingestedBatches: cfg.Registry.Counter(cfg.ID + ".ingest.batches"),
		ingestedReads:   cfg.Registry.Counter(cfg.ID + ".ingest.readings"),
		degradedReads:   cfg.Registry.Counter(cfg.ID + ".ingest.degraded_readings"),
		alertsStored:    cfg.Registry.Counter(cfg.ID + ".alerts.instances"),
		dupAlerts:       cfg.Registry.Counter(cfg.ID + ".alerts.duplicates"),
		expireErrors:    cfg.Registry.Counter(cfg.ID + ".expire.errors"),
	}
	if cfg.Scheduler != nil {
		n.sched = sched.New(*cfg.Scheduler, cfg.Clock, cfg.Registry, cfg.ID+".sched.")
	}
	dur, err := durable.Open(cfg.Durability, cfg.Storage, 0, cfg.Registry, cfg.ID+".", n.replay)
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	n.dur, n.series = dur, dur.Series
	if err := dur.Recover(n.recovery()); err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	return n, nil
}

// recovery is the cloud's half of the durable core's recovery driver:
// the snapshot and record appliers of journal.go.
func (n *Node) recovery() durable.Recovery {
	return durable.Recovery{Snapshot: n.restore, Record: n.replayRecord, Checkpoint: n.Checkpoint}
}

// DuplicateBatches reports how many at-least-once duplicate
// deliveries the cloud's receive path suppressed.
func (n *Node) DuplicateBatches() int64 { return n.dur.Duplicates() }

// ID returns the endpoint name.
func (n *Node) ID() string { return n.cfg.ID }

// Archive exposes the classified permanent store (read-side).
func (n *Node) Archive() *store.Archive { return n.archive }

// Preserve runs the preservation block on an arriving batch:
// classification (category/type/day indexing), lineage recording, and
// permanent archiving. On a durable cloud the batch is journaled
// before it is applied. Kept for tests: internal/opendata's
// TestClientEndToEnd seeds the archive through it.
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
	err := n.dur.Journal.Apply(func(buf []byte) []byte {
		buf = append(buf, recPreserve2)
		buf = wal.AppendUint64(buf, 0)
		buf = wal.AppendUint64(buf, seq)
		buf = wal.AppendString(buf, from)
		return sensor.AppendBatch(buf, b)
	}, func() error {
		if err := n.applyPreserve(b, from, seq); err != nil {
			return err
		}
		n.ingestedBatches.Inc()
		n.ingestedReads.Add(int64(len(b.Readings)))
		return nil
	})
	if err != nil {
		return fmt.Errorf("cloud preserve: %w", err)
	}
	return nil
}

// applyPreserve is a preserve record's transition: the archive put,
// the series append the record is the log of, and the delivery mark.
func (n *Node) applyPreserve(b *model.Batch, from string, seq uint64) error {
	if _, err := n.archive.Put(b, provenanceOf(b.NodeID, from, n.cfg.ID), n.cfg.Clock.Now()); err != nil {
		return err
	}
	if err := n.dur.Store(b); err != nil {
		return err
	}
	n.replay.Mark(b.NodeID, seq)
	return nil
}

// acceptSummaryPush journals (durable mode), folds and marks one
// degraded summary push under the journal mutex, the atomicity
// preserve gives batches: the raw payload is journaled first, with its
// (Origin, Seq), and a failed append refuses the push so the sender
// retries. Deduped by (origin, seq) exactly like batches; the windows
// merge decomposably, so retries and multi-hop re-emissions (fog1 ->
// fog2 -> cloud) converge to the same totals.
func (n *Node) acceptSummaryPush(push *protocol.SummaryPush, payload []byte) error {
	err := n.dur.Journal.Apply(func(buf []byte) []byte {
		return durable.AppendPayload(buf, recSummary, payload)
	}, func() error {
		n.foldSummary(push)
		n.degradedReads.Add(push.Readings())
		return nil
	})
	if err != nil {
		return fmt.Errorf("cloud summary push: %w", err)
	}
	return nil
}

// foldSummary is a summary record's transition: the push's windows
// merge into the type's held windows, under its delivery mark (none
// for the snapshot's held windows, which carry no identity).
func (n *Node) foldSummary(push *protocol.SummaryPush) {
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
	n.replay.Mark(push.Origin, push.Seq)
}

// heldPushes returns the held windows as one summary push per type —
// the snapshot's window section. Window order within a push is free:
// every window folds into an empty slot on recovery.
func (n *Node) heldPushes() []protocol.SummaryPush {
	n.sumMu.Lock()
	defer n.sumMu.Unlock()
	pushes := make([]protocol.SummaryPush, 0, len(n.degraded))
	for typ, wins := range n.degraded {
		push := protocol.SummaryPush{TypeName: typ}
		for start, w := range wins {
			push.Windows = append(push.Windows, protocol.SummaryWindow{StartUnix: start, EndUnix: w.End.UnixNano(), Summary: w.Summary})
		}
		pushes = append(pushes, push)
	}
	return pushes
}

// acceptAlertPush journals (durable mode), stores and marks one
// decoded alert push, all under the journal mutex so a checkpoint
// always sees log, alert store and replay filter agree — the same
// atomicity preserve gives batches. The payload is journaled verbatim:
// it already carries the (Origin, Seq) delivery identity and every
// instance identity, so one record recovers both the dedup mark and
// the stored alerts.
func (n *Node) acceptAlertPush(push *protocol.AlertPush, payload []byte) error {
	err := n.dur.Journal.Apply(func(buf []byte) []byte {
		return append(append(buf, recAlert), payload...)
	}, func() error {
		stored, dups := n.storeAlerts(push)
		n.alertsStored.Add(stored)
		n.dupAlerts.Add(dups)
		return nil
	})
	if err != nil {
		return fmt.Errorf("cloud alert: %w", err)
	}
	return nil
}

// storeAlerts is an alert record's transition: the push's instances
// fold into the alert store, deduped by instance key, under the push's
// delivery mark (none for the snapshot's instances). It reports the
// instances stored and those already held, for the live accept's
// counters.
func (n *Node) storeAlerts(push *protocol.AlertPush) (stored, dups int64) {
	n.alertMu.Lock()
	for i := range push.Alerts {
		key := push.Alerts[i].Key()
		if _, ok := n.alerts[key]; ok {
			dups++
			continue
		}
		n.alerts[key] = push.Alerts[i]
		stored++
	}
	n.alertMu.Unlock()
	n.replay.Mark(push.Origin, push.Seq)
	return stored, dups
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
// preserves when Retention is configured, counting a sweep whose
// cutoff could not be journaled on expire.errors. It is called from
// Handle after preserve has returned (never inside it: Expire takes
// the journal mutex preserve holds).
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
		if _, err := n.Expire(n.cfg.Clock.Now().Add(-n.cfg.Retention)); err != nil {
			n.expireErrors.Inc()
		}
	}
}

// Historical returns archived readings of a type in [from, to] — the
// paper's historical data served to deep-processing applications.
func (n *Node) Historical(typeName string, from, to time.Time) []model.Reading {
	return n.series.QueryRange(typeName, from, to)
}

// HistoricalPage serves one bounded page of the historical scan: at
// most min(limit, protocol.DefaultPageLimit) readings plus the cursor
// resuming the scan, so a query over the whole archive streams
// instead of materializing one unbounded response.
func (n *Node) HistoricalPage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	return store.Page(n.series, typeName, from, to, limit, cursor)
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
// its newest one. A durable cloud journals the cutoff first, so
// recovery does not resurrect destroyed records; a cutoff it could
// not journal destroys nothing and returns the error.
func (n *Node) Expire(before time.Time) (int, error) {
	destroyed := 0
	err := n.dur.Journal.Apply(func(buf []byte) []byte {
		return wal.AppendUint64(append(buf, recExpire), uint64(before.UnixNano()))
	}, func() error {
		destroyed = n.applyExpire(before)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("cloud expire: %w", err)
	}
	return destroyed, nil
}

// applyExpire is an expire record's transition: the archive and the
// series drop what was collected before the cutoff.
func (n *Node) applyExpire(before time.Time) int {
	destroyed := n.archive.Expire(before)
	n.series.EvictBefore(before)
	return destroyed
}

// Checkpoint folds a durable cloud's archive, replay-filter marks,
// alert instances and degraded windows into a snapshot and truncates
// the journal, bounding recovery time. No-op on an in-memory cloud.
func (n *Node) Checkpoint() error {
	err := n.dur.Checkpoint(func(dst []byte) ([]byte, error) {
		return encodeCloudSnapshot(dst, n.replay.Dump(), n.archive.Records(), n.AlertInstances(), n.heldPushes())
	})
	if err != nil {
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
	if appends, due := n.dur.Journal.CheckpointDue(); due && appends*4 >= n.archive.Len() {
		_ = n.Checkpoint()
	}
}

// Discard releases a durable cloud's journal and segment store without
// a checkpoint — crash-semantics teardown for restart simulations; the
// on-disk state stays exactly as the last append left it.
func (n *Node) Discard() { n.dur.Discard() }

// Close writes a final checkpoint and closes the journal and the
// segment store of a durable cloud; an in-memory cloud closes as a
// no-op. Safe to call multiple times.
func (n *Node) Close() error { return n.dur.Close(n.Checkpoint) }

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
		ack, err := n.dur.Accept(b.NodeID, seq, func() error { return n.preserve(b, msg.From, seq) })
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
		return n.dur.Accept(push.Origin, push.Seq, func() error { return n.acceptAlertPush(push, msg.Payload) })
	case transport.KindSummaryPush:
		var push protocol.SummaryPush
		if err := protocol.DecodeJSON(msg.Payload, &push); err != nil {
			return nil, err
		}
		if err := push.Validate(); err != nil {
			return nil, err
		}
		return n.dur.Accept(push.Origin, push.Seq, func() error { return n.acceptSummaryPush(&push, msg.Payload) })
	case transport.KindQuery, transport.KindSummary:
		return store.Serve(n.series, n.cfg.ID, msg.Kind, msg.Payload)
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
