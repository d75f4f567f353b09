package fognode

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"f2c/internal/cq"
	"f2c/internal/durable"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// The fog-node journal persists exactly the state the upward-delivery
// guarantee depends on, as one record per state transition, and it is
// the node's one log: the segment store keeps none, and its memtable
// is refilled from the records that carry readings. The journal
// itself, its recovery driver and its checkpoint are the shared
// durable core (internal/durable); what is fog-specific is here: the
// record table and the snapshot body. Records are appended under the
// same lock as the state change they describe (the pending-shard
// mutex), and each record kind has one transition on the node's own
// state, which the live path runs right after the append and replay
// runs for the same record — so replaying the log is the live path,
// transition by transition. Recovery ordering is the store section
// and snapshot first, then the log tail, each record applied as it is
// read, then the continuous-query settle (settle below).
//
//	recBatch          readings accepted into a type's pending buffer
//	                  and the local store; when the batch arrived
//	                  sequenced over the transport the record also
//	                  carries its (origin, seq) replay-filter mark, so
//	                  acceptance and dedup state commit atomically — a
//	                  recovered receiver either has both the batch and
//	                  its mark or neither, and a sender's retry is
//	                  either recognized or re-accepted exactly once
//	                  (applyBatch)
//	recShed           readings trimmed oldest-first by
//	                  MaxPendingReadings, dropped or, on a
//	                  DegradeToSummary node, folded into the degrade
//	                  buffer, behind the outbox items a handoff or
//	                  routed forward had claimed (a record written
//	                  before the claim was logged replays with none;
//	                  applyShed)
//	recAbsorb         a child's summary push merged into the degrade
//	                  buffer (raw payload, with its (origin, seq) mark;
//	                  applyAbsorb)
//	recSeal           a batch item frozen onto its type's outbox, O(1):
//	                  (seq, count) freezes the head count readings of
//	                  the pending buffer (applySeal)
//	recPushSeal       a push item frozen onto its type's outbox, with
//	                  its payload; an own summary seal also empties the
//	                  degrade buffer it froze, and an alert fold's
//	                  re-seal of the merged push replaces the earlier
//	                  seal in place, by (kind, origin, seq)
//	                  (applyPushSeal)
//	recItemCommit     an item delivered and acknowledged upward, handed
//	                  to a new owner by a migration, or dropped by its
//	                  overflow policy (applyCommit)
//	recMigrateStart   a type's state claimed for handoff to a new
//	                  owner, with the counter after the handoff's
//	                  transfer sequences were reserved — the items stay
//	                  queued until committed (recovery lands on local
//	                  ownership) but the counter must stay past the
//	                  reserved sequences the target may have marked
//	recMigrateIn      one absorbed handoff chunk, raw transfer payload
//	                  (wire version 3, one item list; applyMigrateIn).
//	                  A log holding an older chunk is refused: only a
//	                  crash leaves one, since a checkpoint folds
//	                  absorbed items into the snapshot
//	recSubscribe      a standing subscription registered (JSON)
//	recUnsubscribe    a subscription cancelled (or handed off by a
//	                  completed shard migration)
//	recHarvest        a flush's continuous-query harvest at its clock
//	                  reading, written before the harvest runs: it
//	                  advances each subscription's watermark, which
//	                  decides the window a later late reading folds
//	                  into (replay runs the harvest; what it fires is
//	                  held as refires, like a batch's threshold fires)
//
// recBatch, recAbsorb, recMigrateIn, recSubscribe and the
// recPushSeal of a push absorbed from another node are acceptance
// gates: if the record cannot be appended the operation fails and the
// sender retries. The other records are best-effort (durable.Journal.
// Note) — losing one degrades toward re-delivery (which the
// receiver-side replay filter or the cloud's per-instance alert dedup
// absorbs) rather than loss — and a failed one is counted in
// <id>.journal.errors.
//
// Replay writes no record and changes no metric counter: recovered
// state was accounted by its first life.
//
// Record types 3, 6 and 10 were written before the one-outbox journal
// and are retired: a log holding one is refused. Type 14 is not used:
// older logs may hold it.
const (
	// journalVersion is the snapshot body layout written by
	// checkpoints, the only one read.
	journalVersion = 3

	recBatch        = 1
	recSeal         = 2
	recShed         = 4
	recMigrateStart = 5
	recMigrateIn    = 7
	recSubscribe    = 8
	recUnsubscribe  = 9
	recItemCommit   = 11
	recPushSeal     = 12
	recAbsorb       = 13
	recHarvest      = 15
)

// The record table: one encoder per record above, each appending
// through the node's durable.Journal (a no-op on a node without one).

// journalBatch journals readings accepted into the pending buffer,
// together with the delivery mark (origin, seq) of the transport hop
// that carried them (zero when the batch arrived unsequenced — a
// local edge ingest or a v1 envelope), and applies the acceptance
// under the same journal mutex: the record is the store append's log.
// The batch is logged with the node's own identity — the shape the
// pending buffer holds and a recovered flush would send. The caller
// holds the shard lock.
func (n *Node) journalBatch(sh *pendingShard, b *model.Batch, origin string, seq uint64) error {
	return n.dur.Journal.Apply(func(buf []byte) []byte {
		up := model.Batch{
			NodeID:    n.cfg.Spec.ID,
			TypeName:  b.TypeName,
			Category:  b.Category,
			Collected: b.Collected,
			Readings:  b.Readings,
		}
		buf = append(buf, recBatch)
		buf = wal.AppendUint64(buf, seq)
		buf = wal.AppendString(buf, origin)
		return sensor.AppendBatch(buf, &up)
	}, func() error { return n.applyBatch(sh, b, origin, seq) })
}

// sealRecord encodes a batch seal: O(1), the log already holds the
// readings.
func sealRecord(typ string, seq uint64, count int) func(buf []byte) []byte {
	return func(buf []byte) []byte {
		buf = append(buf, recSeal)
		buf = wal.AppendUint64(buf, seq)
		buf = wal.AppendUvarint(buf, uint64(count))
		return wal.AppendString(buf, typ)
	}
}

// pushSealRecord encodes a push seal, with the payload.
func pushSealRecord(it *item) func(buf []byte) []byte {
	return func(buf []byte) []byte {
		buf = append(buf, recPushSeal, byte(rank(it.kind)))
		return wal.AppendBytes(buf, it.payload)
	}
}

// journalCommit journals an item leaving a type's outbox for good.
func (n *Node) journalCommit(typ, origin string, seq uint64) {
	n.dur.Journal.Note(func(buf []byte) []byte {
		buf = append(buf, recItemCommit)
		buf = wal.AppendUint64(buf, seq)
		buf = wal.AppendString(buf, origin)
		return wal.AppendString(buf, typ)
	})
}

// journalShed journals a bound trim with the claim it ran behind: the
// claim lives only in memory, and replay runs with nothing claimed.
// The claim trails the type, so an older binary still parses the
// record.
func (n *Node) journalShed(typ string, count, claimed int) {
	n.dur.Journal.Note(func(buf []byte) []byte {
		buf = append(buf, recShed)
		buf = wal.AppendUvarint(buf, uint64(count))
		buf = wal.AppendString(buf, typ)
		return wal.AppendUvarint(buf, uint64(claimed))
	})
}

// journalMigrateStart journals a type's state claimed for a handoff,
// carrying the sequence counter after the handoff's transfer sequences
// were reserved. Best-effort, like own seals: the state is covered
// either way (uncommitted items stay queued), but the watermark keeps
// a recovered counter past the reserved transfer sequences — the
// target may have marked them, and a reused sequence would be deduped
// there silently.
func (n *Node) journalMigrateStart(typ, target string, seqHigh uint64) {
	n.dur.Journal.Note(func(buf []byte) []byte {
		buf = append(buf, recMigrateStart)
		buf = wal.AppendString(buf, typ)
		buf = wal.AppendString(buf, target)
		return wal.AppendUint64(buf, seqHigh)
	})
}

// journalHarvest journals a harvest before it runs. Best effort, like
// own seals: a lost record replays the late readings after it into
// their own windows, the behaviour before the record existed.
func (n *Node) journalHarvest(now time.Time) {
	n.dur.Journal.Note(func(buf []byte) []byte {
		return wal.AppendUint64(append(buf, recHarvest), uint64(now.UnixNano()))
	})
}

func (n *Node) journalUnsubscribe(id string) {
	n.dur.Journal.Note(func(buf []byte) []byte {
		return wal.AppendString(append(buf, recUnsubscribe), id)
	})
}

// Snapshot body layout (version 3; the durable core writes the store
// section ahead of it):
//
//	[version u8]
//	[seq counter u64]
//	[origins uvarint] { [origin string] [n uvarint] { [seq u64] }* }*
//	[entries uvarint] { [kind u8] [seq u64] [body, uvarint-framed] }*
//	[subs uvarint]    { [cq.SubSnapshot JSON, uvarint-framed] }*
//
// An entry is a pending buffer (kind 0, sensor-wire batch, seq 0), an
// outbox item (kind 1 + rank: a batch item's body is its sensor-wire
// batch, a push item's its payload) or a degrade buffer (kind 4, a
// SummaryPush JSON without identity). Entries route by the type
// embedded in their body; a type's items keep their queue order.
const (
	snapEntryPending  = 0
	snapEntryItem     = 1 // + rank
	snapEntryDegraded = snapEntryItem + len(kindTable)
)

func encodeNodeSnapshot(dst []byte, seqCounter uint64, marks map[string][]uint64, shards []pendingShard, subs []cq.SubSnapshot) ([]byte, error) {
	dst = append(dst, journalVersion)
	dst = wal.AppendUint64(dst, seqCounter)
	dst = wal.AppendMarkSet(dst, marks)
	entries := 0
	for i := range shards {
		sh := &shards[i]
		entries += len(sh.pending) + len(sh.degraded)
		for _, q := range sh.outbox {
			entries += len(q.items)
		}
	}
	dst = wal.AppendUvarint(dst, uint64(entries))
	var wire []byte
	appendEntry := func(kind int, seq uint64, body []byte) {
		dst = append(dst, byte(kind))
		dst = wal.AppendUint64(dst, seq)
		dst = wal.AppendBytes(dst, body)
	}
	for i := range shards {
		sh := &shards[i]
		for _, q := range sh.outbox {
			for k := range q.items {
				it := &q.items[k]
				body := it.payload
				if it.b != nil {
					wire = sensor.AppendBatch(wire[:0], it.b)
					body = wire
				}
				appendEntry(snapEntryItem+rank(it.kind), it.seq, body)
			}
		}
		for _, b := range sh.pending {
			wire = sensor.AppendBatch(wire[:0], b)
			appendEntry(snapEntryPending, 0, wire)
		}
		for typ, buf := range sh.degraded {
			doc, err := protocol.EncodeJSON(buf.push("", 0, typ))
			if err != nil {
				return nil, err
			}
			appendEntry(snapEntryDegraded, 0, doc)
		}
	}
	return wal.AppendDocs(dst, subs, cq.EncodeSubSnapshot)
}

// pushItem builds the outbox item of an encoded push, reading the
// delivery identity, type and class out of the payload.
func pushItem(kind transport.Kind, payload []byte) (typ string, it item, err error) {
	it = item{kind: kind, payload: payload}
	switch kind {
	case transport.KindSummaryPush:
		var p protocol.SummaryPush
		if err = protocol.DecodeJSON(payload, &p); err == nil {
			err = p.Validate()
			typ, it.origin, it.seq, it.class = p.TypeName, p.Origin, p.Seq, p.Category
		}
	case transport.KindAlertPush:
		var p *protocol.AlertPush
		if p, err = protocol.DecodeAlertPush(payload); err == nil {
			typ, it.origin, it.seq, it.class = p.TypeName, p.Origin, p.Seq, p.Category
		}
	default:
		err = fmt.Errorf("fognode: no push of kind %q", kind)
	}
	return typ, it, err
}

// decodeChunk decodes one migration chunk's items into outbox items,
// identities preserved, and its subscription snapshots. Every item
// must carry a sequence and belong to the chunk's type, or the whole
// chunk is refused.
func decodeChunk(t *protocol.MigrateTransfer) (items []item, subs []*cq.SubSnapshot, readings int64, err error) {
	items = make([]item, 0, len(t.Items))
	for i, m := range t.Items {
		var typ string
		var it item
		switch {
		case int(m.Kind) >= len(kindTable):
			err = fmt.Errorf("unknown kind %d", m.Kind)
		case kindTable[m.Kind].kind == transport.KindBatch:
			var b *model.Batch
			var seq uint64
			if b, _, seq, err = protocol.DecodeBatchPayloadSeq(m.Payload); err == nil {
				typ, it = b.TypeName, item{kind: transport.KindBatch, origin: b.NodeID, seq: seq, class: b.Category.String(), b: b}
				readings += int64(len(b.Readings))
			}
		default:
			typ, it, err = pushItem(kindTable[m.Kind].kind, m.Payload)
		}
		switch {
		case err != nil: // the decode's own error
		case it.seq == 0:
			err = fmt.Errorf("without a sequence")
		case typ != t.TypeName:
			err = fmt.Errorf("type %q in a %q transfer", typ, t.TypeName)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("migrate item %d: %w", i, err)
		}
		items = append(items, it)
	}
	subs = make([]*cq.SubSnapshot, 0, len(t.Subs))
	for i := range t.Subs {
		snap, err := cq.DecodeSubSnapshot(t.Subs[i])
		if err != nil {
			return nil, nil, 0, fmt.Errorf("migrate subscription %d: %w", i, err)
		}
		subs = append(subs, snap)
	}
	return items, subs, readings, nil
}

// recovery is the fog node's half of durable.Core.Recover. The
// snapshot and every log record are applied to the node as they are
// read, through the transitions the live path runs; the one step left
// after the log is the continuous-query settle.
//
// A batch's readings are offered to the cq engine as its record is
// read, as the live ingest offered them, and a harvest record runs the
// harvest the live flush ran; the windows that fire are held as
// refires. An own alert seal read later marks
// its windows emitted and takes them off the refires: they were
// sealed. Windows still held after the log fired in the first life
// and lost their seal record with the crash, and settle seals them
// under fresh sequences, so this life's records cover them.
func (n *Node) recovery() durable.Recovery {
	var refired []cq.Alert
	return durable.Recovery{
		Snapshot: func(data []byte) error { return n.restoreSnapshot(data, &refired) },
		Record:   func(rec []byte) error { return n.replayRecord(rec, &refired) },
		Settle: func() error {
			n.seedSeq()
			n.sealAlerts(refired)
			return nil
		},
		Checkpoint: n.Checkpoint,
	}
}

// markFired applies the emitted marks of this node's own fires in a
// recovered alert item to the cq engine, and takes those windows off
// the refires.
func (n *Node) markFired(it *item, refired *[]cq.Alert) {
	if it.kind != transport.KindAlertPush {
		return
	}
	p, err := protocol.DecodeAlertPush(it.payload)
	if err != nil {
		return
	}
	for _, a := range p.Alerts {
		if a.FiredBy != n.cfg.Spec.ID {
			continue
		}
		n.cqe.MarkEmitted(a.SubID, a.StartUnix)
		*refired = slices.DeleteFunc(*refired, func(r cq.Alert) bool { return r.SubID == a.SubID && r.StartUnix == a.StartUnix })
	}
}

// restoreSnapshot applies a checkpoint body to the node: counter,
// marks, outbox items, pending and degrade buffers, subscriptions.
func (n *Node) restoreSnapshot(data []byte, refired *[]cq.Alert) error {
	if len(data) == 0 {
		return nil
	}
	if version := data[0]; version != journalVersion {
		return fmt.Errorf("fognode: unsupported snapshot version %d", version)
	}
	seqCounter, rest, err := wal.ReadUint64(data[1:])
	if err != nil {
		return err
	}
	n.noteSeq(seqCounter)
	if rest, err = wal.ReadMarkSet(rest, n.replay.Mark); err != nil {
		return err
	}
	entries, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return err
	}
	var fired []item
	for i := uint64(0); i < entries; i++ {
		if len(rest) == 0 {
			return fmt.Errorf("fognode: truncated snapshot entry")
		}
		kind := int(rest[0])
		var seq uint64
		if seq, rest, err = wal.ReadUint64(rest[1:]); err != nil {
			return err
		}
		var body []byte
		if body, rest, err = wal.ReadBytes(rest); err != nil {
			return err
		}
		switch {
		case kind == snapEntryPending || kind == snapEntryItem:
			b, err := sensor.DecodeBatch(body)
			if err != nil {
				return fmt.Errorf("fognode: snapshot batch: %w", err)
			}
			sh := n.shardFor(b.TypeName)
			if kind == snapEntryPending {
				n.bufferLocked(sh, b)
			} else {
				n.queueLocked(sh, b.TypeName, item{kind: transport.KindBatch, origin: b.NodeID, seq: seq, class: b.Category.String(), b: b})
			}
		case kind > snapEntryItem && kind < snapEntryDegraded:
			typ, it, err := pushItem(kindTable[kind-snapEntryItem].kind, body)
			if err != nil {
				return fmt.Errorf("fognode: snapshot push: %w", err)
			}
			n.queueLocked(n.shardFor(typ), typ, it)
			fired = append(fired, it)
		case kind == snapEntryDegraded:
			var push protocol.SummaryPush
			if err := protocol.DecodeJSON(body, &push); err != nil {
				return fmt.Errorf("fognode: snapshot degrade buffer: %w", err)
			}
			n.applyAbsorb(n.shardFor(push.TypeName), &push)
		default:
			return fmt.Errorf("fognode: unknown snapshot entry kind %d", kind)
		}
	}
	if _, err = wal.ReadDocs(rest, func(doc []byte) error {
		snap, err := cq.DecodeSubSnapshot(doc)
		if err == nil {
			err = n.cqe.Install(*snap)
		}
		if err != nil {
			return fmt.Errorf("fognode: snapshot subscription: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	// The subscriptions are in: the fires of the queued alert items
	// mark their windows now.
	for i := range fired {
		n.markFired(&fired[i], refired)
	}
	return nil
}

// replayRecord applies one log record to the node through the
// transition the live path ran after appending it.
func (n *Node) replayRecord(rec []byte, refired *[]cq.Alert) error {
	if len(rec) == 0 {
		return fmt.Errorf("fognode: empty journal record")
	}
	body := rec[1:]
	switch rec[0] {
	case recBatch:
		seq, rest, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		origin, rest, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		b, err := sensor.DecodeBatch(rest)
		if err != nil {
			return fmt.Errorf("fognode: journal batch: %w", err)
		}
		if err := n.applyBatch(n.shardFor(b.TypeName), b, origin, seq); err != nil {
			return fmt.Errorf("fognode %s: recover store: %w", n.cfg.Spec.ID, err)
		}
		*refired = append(*refired, n.cqe.Observe(b)...)
	case recSeal:
		seq, rest, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		count, rest, err := wal.ReadUvarint(rest)
		if err != nil {
			return err
		}
		typ, _, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		n.applySeal(n.shardFor(typ), typ, seq, int(count))
	case recPushSeal:
		if len(body) == 0 || int(body[0]) >= len(kindTable) {
			return fmt.Errorf("fognode: journal seal of unknown kind")
		}
		payload, _, err := wal.ReadBytes(body[1:])
		if err != nil {
			return err
		}
		typ, it, err := pushItem(kindTable[body[0]].kind, payload)
		if err != nil {
			return fmt.Errorf("fognode: recovered %s: %w", it.kind, err)
		}
		n.applyPushSeal(n.shardFor(typ), typ, it)
		n.markFired(&it, refired)
	case recItemCommit:
		seq, rest, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		origin, rest, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		typ, _, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		n.applyCommit(n.shardFor(typ), typ, origin, seq)
	case recShed:
		count, rest, err := wal.ReadUvarint(body)
		if err != nil {
			return err
		}
		typ, rest, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		var claimed uint64
		if len(rest) > 0 {
			if claimed, _, err = wal.ReadUvarint(rest); err != nil {
				return err
			}
		}
		n.applyShed(n.shardFor(typ), typ, int(count), int(claimed))
	case recAbsorb:
		payload, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		var push protocol.SummaryPush
		if err := protocol.DecodeJSON(payload, &push); err != nil {
			return fmt.Errorf("fognode: journal summary push: %w", err)
		}
		n.applyAbsorb(n.shardFor(push.TypeName), &push)
	case recMigrateStart:
		// An uncommitted handoff keeps its items queued, so the
		// recovered source still owns them and drains upward — the
		// shared parent dedupes if the target also absorbed a copy. The
		// watermark keeps the counter past the handoff's reserved
		// transfer sequences.
		_, rest, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		_, rest, err = wal.ReadString(rest)
		if err != nil {
			return err
		}
		seqHigh, _, err := wal.ReadUint64(rest)
		if err != nil {
			return err
		}
		n.noteSeq(seqHigh)
	case recMigrateIn:
		payload, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		t, err := protocol.DecodeMigrateTransfer(payload)
		if errors.Is(err, protocol.ErrMigrateVersion) {
			// Only a crash-left log tail can still hold one: a
			// checkpoint folds absorbed chunks into the snapshot.
			return fmt.Errorf("fognode: the journal's log holds a migration chunk this build cannot read (%w): restart the node once on the previous binary, whose clean close checkpoints the chunk away, then upgrade; refused, left as it is", err)
		}
		if err != nil {
			return fmt.Errorf("fognode: journal migrate chunk: %w", err)
		}
		items, subs, _, err := decodeChunk(t)
		if err != nil {
			return fmt.Errorf("fognode: journal %w", err)
		}
		n.applyMigrateIn(n.shardFor(t.TypeName), t, items, subs)
		for i := range items {
			n.markFired(&items[i], refired)
		}
	case recSubscribe:
		doc, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		var sub cq.Subscription
		if err := json.Unmarshal(doc, &sub); err != nil {
			return fmt.Errorf("fognode: journal subscription: %w", err)
		}
		return n.cqe.Subscribe(sub)
	case recUnsubscribe:
		id, _, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		n.cqe.Unsubscribe(id)
	case recHarvest:
		now, _, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		*refired = append(*refired, n.cqe.Harvest(time.Unix(0, int64(now)))...)
	default:
		return fmt.Errorf("fognode: unknown journal record type %d", rec[0])
	}
	return nil
}
