package fognode

import (
	"encoding/json"
	"fmt"

	"f2c/internal/cq"
	"f2c/internal/durable"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// The fog-node journal persists exactly the state the upward-delivery
// guarantee depends on, as one record per state transition. The
// journal itself, its recovery driver and its checkpoint are the
// shared durable core (internal/durable); what is fog-specific is
// here: the record table, the snapshot body and the storage-mode
// check. Records are appended under the same lock as the state change
// they describe (the pending-shard mutex), so replaying the log
// reproduces the per-type state machine transition by transition.
// Recovery ordering is snapshot first, then the log tail, then
// installation into the shards.
//
//	recBatch          readings accepted into a type's pending buffer;
//	                  when the batch arrived sequenced over the
//	                  transport the record also carries its
//	                  (origin, seq) replay-filter mark, so acceptance
//	                  and dedup state commit atomically — a recovered
//	                  receiver either has both the batch and its mark
//	                  or neither, and a sender's retry is either
//	                  recognized or re-accepted exactly once
//	recShed           readings trimmed oldest-first by
//	                  MaxPendingReadings; replay drops them again or,
//	                  on a DegradeToSummary node, folds them into the
//	                  recovered degrade buffer again
//	recAbsorb         a child's summary push merged into the degrade
//	                  buffer (raw payload, with its (origin, seq) mark)
//	recSeal           a batch item frozen onto its type's outbox, O(1):
//	                  (seq, count) freezes the next count journaled
//	                  readings of the pending buffer
//	recPushSeal       a push item frozen onto its type's outbox, with
//	                  its payload; an own summary seal also empties the
//	                  degrade buffer it froze. Replay is keyed by
//	                  (kind, origin, seq), so an alert fold's re-seal of
//	                  the merged push replaces the earlier seal in place
//	recItemCommit     an item delivered and acknowledged upward, handed
//	                  to a new owner by a migration, or dropped by its
//	                  overflow policy; replay removes it
//	recMigrateStart   a type's state claimed for handoff to a new
//	                  owner, with the counter after the handoff's
//	                  transfer sequences were reserved — the items stay
//	                  queued until committed (recovery lands on local
//	                  ownership) but the counter must stay past the
//	                  reserved sequences the target may have marked
//	recMigrateIn      one absorbed handoff chunk, raw transfer payload;
//	                  replay re-absorbs the items and marks verbatim
//	recSubscribe      a standing subscription registered (JSON)
//	recUnsubscribe    a subscription cancelled (or handed off by a
//	                  completed shard migration)
//
// recBatch, recAbsorb, recMigrateIn, recSubscribe and the recPushSeal
// of a push absorbed from another node are acceptance gates: if the
// record cannot be appended the operation fails and the sender
// retries. The other records are best-effort — losing one degrades
// toward re-delivery (which the receiver-side replay filter or the
// cloud's per-instance alert dedup absorbs) rather than loss.
//
// Read-only, for logs written before the one-outbox journal:
// recCommit (a batch commit without an origin), recMigrateCommit (a
// handoff's moved batch sequences, batched) and recAlertSeal (an alert
// push seal without a kind) replay onto the same recovery state;
// recItemCommit is the record alert commits always were.
const (
	// journalVersion is the snapshot layout version written by
	// checkpoints; versions 1 and 2 still decode.
	journalVersion = 3

	recBatch         = 1
	recSeal          = 2
	recCommit        = 3 // read-only
	recShed          = 4
	recMigrateStart  = 5
	recMigrateCommit = 6 // read-only
	recMigrateIn     = 7
	recSubscribe     = 8
	recUnsubscribe   = 9
	recAlertSeal     = 10 // read-only
	recItemCommit    = 11
	recPushSeal      = 12
	recAbsorb        = 13
)

// The record table: one encoder per record above, each appending
// through the node's durable.Journal (a no-op on a node without one).

// journalBatch journals readings accepted into the pending buffer,
// together with the delivery mark (origin, seq) of the transport hop
// that carried them (zero when the batch arrived unsequenced — a
// local edge ingest or a v1 envelope). The batch is logged with the
// node's own identity — the shape the pending buffer holds and a
// recovered flush would send.
func (n *Node) journalBatch(b *model.Batch, origin string, seq uint64) error {
	return n.dur.Journal.Write(func(buf []byte) []byte {
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
	})
}

// journalSeal journals one item frozen onto a type's outbox: O(1) for
// a batch, whose readings the log already holds, with the payload for
// a push.
func (n *Node) journalSeal(typ string, it *item) error {
	return n.dur.Journal.Write(func(buf []byte) []byte {
		if it.b == nil {
			buf = append(buf, recPushSeal, byte(rank(it.kind)))
			return wal.AppendBytes(buf, it.payload)
		}
		buf = append(buf, recSeal)
		buf = wal.AppendUint64(buf, it.seq)
		buf = wal.AppendUvarint(buf, uint64(len(it.b.Readings)))
		return wal.AppendString(buf, typ)
	})
}

// journalCommit journals an item leaving a type's outbox for good.
func (n *Node) journalCommit(typ, origin string, seq uint64) error {
	return n.dur.Journal.Write(func(buf []byte) []byte {
		buf = append(buf, recItemCommit)
		buf = wal.AppendUint64(buf, seq)
		buf = wal.AppendString(buf, origin)
		return wal.AppendString(buf, typ)
	})
}

func (n *Node) journalShed(typ string, count int) error {
	return n.dur.Journal.Write(func(buf []byte) []byte {
		buf = append(buf, recShed)
		buf = wal.AppendUvarint(buf, uint64(count))
		return wal.AppendString(buf, typ)
	})
}

// journalMigrateStart journals a type's state claimed for a handoff,
// carrying the sequence counter after the handoff's transfer sequences
// were reserved. Best-effort, like own seals: the state is covered
// either way (uncommitted items stay queued), but the watermark keeps
// a recovered counter past the reserved transfer sequences — the
// target may have marked them, and a reused sequence would be deduped
// there silently.
func (n *Node) journalMigrateStart(typ, target string, seqHigh uint64) error {
	return n.dur.Journal.Write(func(buf []byte) []byte {
		buf = append(buf, recMigrateStart)
		buf = wal.AppendString(buf, typ)
		buf = wal.AppendString(buf, target)
		return wal.AppendUint64(buf, seqHigh)
	})
}

func (n *Node) journalUnsubscribe(id string) error {
	return n.dur.Journal.Write(func(buf []byte) []byte {
		return wal.AppendString(append(buf, recUnsubscribe), id)
	})
}

// Snapshot layout (version 3):
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
// Version 1 ends after the entries and knows kinds 0 and 1; version 2
// additionally ends with [alerts uvarint] { alert push payload }*,
// the queued alert pushes that version 3 writes as entries.
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

// recoveryState accumulates the replayed delivery state before it is
// installed into a node.
type recoveryState struct {
	// self is the recovering node's ID: it decides which item
	// sequences advance the counter (own seals) and which fired alerts
	// re-mark the engine's emitted sets (own fires).
	self string
	// degrade is set on a node that degrades to summaries: replayed
	// trims then fold instead of dropping.
	degrade    bool
	seqCounter uint64
	sawSeq     bool
	marks      []markEntry
	types      map[string]*typeRecovery
	// stored collects every replayed batch for the local time-series
	// store: recovery restores real-time reads over the checkpoint
	// window, not just the undelivered buffers.
	stored []*model.Batch
	// Continuous-query state. snapSubs are the checkpoint's engine
	// snapshots; subEvents the tail's subscribe/unsubscribe/handoff
	// ops in log order. observed holds only the tail's accepted
	// batches: the engine snapshot already folded everything up to
	// the checkpoint (batches still pending included), so re-observing
	// snapshot entries would double-count their readings. alertMarks
	// carries the (sub, window-start) of every alert this node's own
	// subscriptions fired, from all alert items ever sealed — applied
	// before the re-observation so a sealed window cannot refire.
	snapSubs   []cq.SubSnapshot
	subEvents  []subOp
	observed   []*model.Batch
	alertMarks []alertMark
}

type markEntry struct {
	origin string
	seq    uint64
}

type subOp struct {
	remove bool
	id     string
	sub    cq.Subscription
	// snap is set for a migration-absorbed subscription (definition
	// plus live window state, installed via Engine.Install).
	snap *cq.SubSnapshot
}

type alertMark struct {
	subID string
	start int64
}

// typeRecovery is one type's replayed delivery state: its outbox
// (nothing is claimed during replay), pending buffer and degrade
// buffer.
type typeRecovery struct {
	outbox
	pending  *model.Batch
	degraded *degradeBuf
}

func newRecoveryState() *recoveryState {
	return &recoveryState{types: make(map[string]*typeRecovery)}
}

func (rs *recoveryState) typeState(typ string) *typeRecovery {
	tr, ok := rs.types[typ]
	if !ok {
		tr = &typeRecovery{}
		rs.types[typ] = tr
	}
	return tr
}

func (rs *recoveryState) noteSeq(seq uint64) {
	if !rs.sawSeq || seq > rs.seqCounter {
		rs.seqCounter = seq
	}
	rs.sawSeq = true
}

// buffer appends replayed readings to a type's pending buffer. Clone:
// rs.stored keeps b for the local-store replay, and later merges and
// trims must not touch the store's copy.
func (tr *typeRecovery) buffer(b *model.Batch) {
	if tr.pending == nil {
		tr.pending = b.Clone()
	} else {
		tr.pending.Readings = append(tr.pending.Readings, b.Readings...)
	}
}

// degradeBuf returns the type's recovered degrade buffer.
func (tr *typeRecovery) degradeBuf(cat model.Category) *degradeBuf {
	if tr.degraded == nil {
		tr.degraded = newDegradeBuf(cat)
	}
	return tr.degraded
}

// pushItem builds the outbox item of an encoded push, reading the
// delivery identity, type and class out of the payload.
func pushItem(kind transport.Kind, payload []byte) (typ string, it item, err error) {
	it = item{kind: kind, payload: payload}
	switch kind {
	case transport.KindSummaryPush:
		var p protocol.SummaryPush
		if err = protocol.DecodeJSON(payload, &p); err == nil {
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

// addItem queues one replayed item: counter watermark for own
// sequences, emitted marks for own fires, and the queue entry —
// replaced in place when (kind, origin, seq) is already queued (an
// alert fold's re-seal), queued behind its rank otherwise.
func (rs *recoveryState) addItem(typ string, it item) {
	if it.origin == rs.self {
		rs.noteSeq(it.seq)
	}
	tr := rs.typeState(typ)
	if it.kind == transport.KindAlertPush {
		if p, err := protocol.DecodeAlertPush(it.payload); err == nil {
			for i := range p.Alerts {
				if p.Alerts[i].FiredBy == rs.self {
					rs.alertMarks = append(rs.alertMarks, alertMark{subID: p.Alerts[i].SubID, start: p.Alerts[i].StartUnix})
				}
			}
		}
		for i := range tr.items {
			if q := &tr.items[i]; q.kind == it.kind && q.origin == it.origin && q.seq == it.seq {
				*q = it
				return
			}
		}
	}
	tr.put(it)
}

// addPush queues one replayed push item from its payload.
func (rs *recoveryState) addPush(kind transport.Kind, payload []byte) error {
	typ, it, err := pushItem(kind, payload)
	if err != nil {
		return fmt.Errorf("fognode: recovered %s: %w", kind, err)
	}
	if it.kind == transport.KindSummaryPush && it.origin == rs.self {
		// The seal froze the whole degrade buffer.
		rs.typeState(typ).degraded = nil
	}
	rs.addItem(typ, it)
	return nil
}

// sealPending replays a batch seal: the next count readings of the
// type's pending buffer freeze under seq.
func (rs *recoveryState) sealPending(typ string, seq uint64, count int) {
	rs.noteSeq(seq)
	tr := rs.typeState(typ)
	b := tr.pending
	if b == nil {
		return // seal of an empty buffer: nothing to freeze
	}
	// A seal covers the whole buffer or, chunked by the adaptive
	// controller, its head; the count also bounds the item defensively
	// if log and buffer ever disagree.
	if count < len(b.Readings) {
		rest := *b
		rest.Readings = b.Readings[count:]
		tr.pending = &rest
		head := *b
		head.Readings = b.Readings[:count:count]
		b = &head
	} else {
		tr.pending = nil
	}
	tr.put(item{kind: transport.KindBatch, origin: b.NodeID, seq: seq, class: b.Category.String(), b: b})
}

// commit replays an item leaving its outbox; a record written before
// commits carried an origin has none and matches by sequence alone.
func (rs *recoveryState) commit(typ, origin string, seq uint64) {
	if origin == "" || origin == rs.self {
		// The sequence was used by this node even if its seal record
		// was lost: keep the recovered counter past it so a fresh item
		// can never reuse a sequence the parent already marked (which
		// would be silently deduped — loss, not re-delivery).
		rs.noteSeq(seq)
	}
	rs.typeState(typ).drop(origin, seq)
}

// shed replays boundReadingsLocked: the same trim, dropping the
// readings or, on a degrading node, folding them into the degrade
// buffer again.
func (rs *recoveryState) shed(tr *typeRecovery, drop int) {
	tr.trimOldest(tr.pending, drop, func(b *model.Batch, k int, _ bool) {
		if rs.degrade {
			tr.degradeBuf(b.Category).foldAll(b.Readings[:k])
		}
	})
}

// transferItems decodes one migration chunk's sealed batches, summary
// pushes and alert pushes into outbox items, identities preserved.
func transferItems(t *protocol.MigrateTransfer) (items []item, readings int64, err error) {
	items = make([]item, 0, len(t.Entries)+len(t.Summaries)+len(t.Alerts))
	for i, e := range t.Entries {
		b, _, seq, err := protocol.DecodeBatchPayloadSeq(e.Payload)
		if err != nil {
			return nil, 0, fmt.Errorf("migrate entry %d: %w", i, err)
		}
		if seq != e.Seq {
			return nil, 0, fmt.Errorf("migrate entry %d: envelope seq %d != entry seq %d", i, seq, e.Seq)
		}
		if b.TypeName != t.TypeName {
			return nil, 0, fmt.Errorf("migrate entry %d: type %q in a %q transfer", i, b.TypeName, t.TypeName)
		}
		items = append(items, item{kind: transport.KindBatch, origin: b.NodeID, seq: seq, class: b.Category.String(), b: b})
		readings += int64(len(b.Readings))
	}
	for i := range t.Summaries {
		s := &t.Summaries[i]
		doc, err := protocol.EncodeJSON(s.Push)
		if err != nil {
			return nil, 0, fmt.Errorf("migrate summary %d: %w", i, err)
		}
		items = append(items, item{kind: transport.KindSummaryPush, origin: s.Push.Origin, seq: s.Seq, class: s.Push.Category, payload: doc})
	}
	for i := range t.Alerts {
		_, it, err := pushItem(transport.KindAlertPush, t.Alerts[i].Payload)
		if err != nil {
			return nil, 0, fmt.Errorf("migrate alert %d: %w", i, err)
		}
		items = append(items, it)
	}
	return items, readings, nil
}

func decodeNodeSnapshot(data []byte, rs *recoveryState) error {
	if len(data) == 0 {
		return nil
	}
	version := data[0]
	if version == 0 || version > journalVersion {
		return fmt.Errorf("fognode: unsupported snapshot version %d", version)
	}
	rest := data[1:]
	seqCounter, rest, err := wal.ReadUint64(rest)
	if err != nil {
		return err
	}
	rs.noteSeq(seqCounter)
	rest, err = wal.ReadMarkSet(rest, func(origin string, seq uint64) {
		rs.marks = append(rs.marks, markEntry{origin: origin, seq: seq})
	})
	if err != nil {
		return err
	}
	entries, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return err
	}
	for i := uint64(0); i < entries; i++ {
		if len(rest) == 0 {
			return fmt.Errorf("fognode: truncated snapshot entry")
		}
		kind := int(rest[0])
		rest = rest[1:]
		var seq uint64
		seq, rest, err = wal.ReadUint64(rest)
		if err != nil {
			return err
		}
		var body []byte
		body, rest, err = wal.ReadBytes(rest)
		if err != nil {
			return err
		}
		switch {
		case kind == snapEntryPending || kind == snapEntryItem:
			b, err := sensor.DecodeBatch(body)
			if err != nil {
				return fmt.Errorf("fognode: snapshot batch: %w", err)
			}
			rs.stored = append(rs.stored, b)
			if kind == snapEntryPending {
				rs.typeState(b.TypeName).buffer(b)
			} else {
				// Clone for the same reason buffer does.
				rs.addItem(b.TypeName, item{kind: transport.KindBatch, origin: b.NodeID, seq: seq, class: b.Category.String(), b: b.Clone()})
			}
		case kind > snapEntryItem && kind < snapEntryDegraded:
			if err := rs.addPush(kindTable[kind-snapEntryItem].kind, body); err != nil {
				return err
			}
		case kind == snapEntryDegraded:
			var push protocol.SummaryPush
			if err := protocol.DecodeJSON(body, &push); err != nil {
				return fmt.Errorf("fognode: snapshot degrade buffer: %w", err)
			}
			cat, _ := model.ParseCategory(push.Category)
			rs.typeState(push.TypeName).degradeBuf(cat).absorb(&push)
		default:
			return fmt.Errorf("fognode: unknown snapshot entry kind %d", kind)
		}
	}
	if version == 1 {
		return nil
	}
	rest, err = wal.ReadDocs(rest, func(doc []byte) error {
		snap, err := cq.DecodeSubSnapshot(doc)
		if err != nil {
			return fmt.Errorf("fognode: snapshot subscription: %w", err)
		}
		rs.snapSubs = append(rs.snapSubs, *snap)
		return nil
	})
	if err == nil && version == 2 {
		_, err = wal.ReadDocs(rest, func(payload []byte) error {
			return rs.addPush(transport.KindAlertPush, payload)
		})
	}
	return err
}

// applyRecord replays one log record onto the recovery state, the same
// transition the live path journaled.
func (rs *recoveryState) applyRecord(rec []byte) error {
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
		if seq != 0 {
			// The acceptance carried a delivery mark: restore it with
			// the batch so a recovered receiver still dedupes the
			// sender's retry.
			rs.marks = append(rs.marks, markEntry{origin: origin, seq: seq})
		}
		rs.typeState(b.TypeName).buffer(b)
		rs.stored = append(rs.stored, b)
		// Tail batches were accepted after the checkpoint's engine
		// snapshot, so the cq engine must re-observe them (snapshot
		// entries must not be — their readings are already folded).
		rs.observed = append(rs.observed, b)
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
		rs.sealPending(typ, seq, int(count))
	case recPushSeal:
		if len(body) == 0 || int(body[0]) >= len(kindTable) {
			return fmt.Errorf("fognode: journal seal of unknown kind")
		}
		payload, _, err := wal.ReadBytes(body[1:])
		if err != nil {
			return err
		}
		return rs.addPush(kindTable[body[0]].kind, payload)
	case recAlertSeal:
		payload, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		return rs.addPush(transport.KindAlertPush, payload)
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
		rs.commit(typ, origin, seq)
	case recCommit:
		seq, rest, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		typ, _, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		rs.commit(typ, "", seq)
	case recShed:
		count, rest, err := wal.ReadUvarint(body)
		if err != nil {
			return err
		}
		typ, _, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		rs.shed(rs.typeState(typ), int(count))
	case recAbsorb:
		payload, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		var push protocol.SummaryPush
		if err := protocol.DecodeJSON(payload, &push); err != nil {
			return fmt.Errorf("fognode: journal summary push: %w", err)
		}
		cat, _ := model.ParseCategory(push.Category)
		rs.typeState(push.TypeName).degradeBuf(cat).absorb(&push)
		rs.marks = append(rs.marks, markEntry{origin: push.Origin, seq: push.Seq})
	case recMigrateStart:
		// An uncommitted handoff keeps its items queued, so the
		// recovered source still owns them and drains upward — the
		// shared parent dedupes if the target also absorbed a copy. The
		// watermark advances the counter past the handoff's reserved
		// transfer sequences: the target may hold replay marks for
		// them, and minting one again would get a fresh forward
		// silently deduped there.
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
		rs.noteSeq(seqHigh)
	case recMigrateCommit:
		typ, rest, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		count, rest, err := wal.ReadUvarint(rest)
		if err != nil {
			return err
		}
		for i := uint64(0); i < count; i++ {
			var seq uint64
			seq, rest, err = wal.ReadUint64(rest)
			if err != nil {
				return err
			}
			rs.commit(typ, "", seq)
		}
	case recMigrateIn:
		payload, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		t, err := protocol.DecodeMigrateTransfer(payload)
		if err != nil {
			return fmt.Errorf("fognode: journal migrate chunk: %w", err)
		}
		items, _, err := transferItems(t)
		if err != nil {
			return fmt.Errorf("fognode: journal %w", err)
		}
		// Absorbed verbatim, foreign identity preserved; the moved
		// sequences belong to the source's space, so they do not
		// advance this node's counter.
		for _, it := range items {
			rs.addItem(t.TypeName, it)
		}
		for origin, seqs := range t.Marks {
			for _, seq := range seqs {
				rs.marks = append(rs.marks, markEntry{origin: origin, seq: seq})
			}
		}
		rs.marks = append(rs.marks, markEntry{origin: t.From, seq: t.TransferSeq})
		for i := range t.Subs {
			snap, err := cq.DecodeSubSnapshot(t.Subs[i])
			if err != nil {
				return fmt.Errorf("fognode: journal migrate subscription %d: %w", i, err)
			}
			rs.subEvents = append(rs.subEvents, subOp{snap: snap})
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
		rs.subEvents = append(rs.subEvents, subOp{sub: sub})
	case recUnsubscribe:
		id, _, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		rs.subEvents = append(rs.subEvents, subOp{remove: true, id: id})
	default:
		return fmt.Errorf("fognode: unknown journal record type %d", rec[0])
	}
	return nil
}

// recovery is the fog node's half of the durable core's recovery
// driver: the snapshot and record decoders above, the storage-mode
// check and the installation into the shards, sequence counter,
// replay filter and the local time-series store.
func (n *Node) recovery() durable.Recovery {
	rs := newRecoveryState()
	rs.self = n.cfg.Spec.ID
	rs.degrade = n.cfg.DegradeToSummary
	return durable.Recovery{
		Snapshot: func(data []byte) error { return decodeNodeSnapshot(data, rs) },
		Record:   rs.applyRecord,
		// A segment-backed store is self-durable: it already recovered
		// its own WAL and segments at Open, so replaying the journal's
		// accepted batches into it would duplicate readings. That holds
		// only for a store that lived beside the journal: one created
		// just now has none of them, and serving on would answer range
		// queries short.
		Check: func(fresh bool) error {
			if fresh && len(rs.stored) > 0 {
				return fmt.Errorf("holds %d stored batches, but %s did not exist", len(rs.stored), n.dur.Segments.Dir())
			}
			return nil
		},
		Install: func() error { return n.install(rs) },
	}
}

func (n *Node) install(rs *recoveryState) error {
	// Continuous-query plane: checkpointed engine state first, then
	// the tail's subscription ops, then the emitted marks of every
	// window this node is known to have fired — only then are the
	// tail's accepted batches re-observed, so a sealed window cannot
	// refire while an unsealed one (its fire lost with the crash)
	// legitimately does. Refired alerts are sealed by New once
	// recovery is done.
	for i := range rs.snapSubs {
		if err := n.cqe.Install(rs.snapSubs[i]); err != nil {
			return err
		}
	}
	for _, op := range rs.subEvents {
		switch {
		case op.remove:
			n.cqe.Unsubscribe(op.id)
		case op.snap != nil:
			if err := n.cqe.Install(*op.snap); err != nil {
				return err
			}
		default:
			if err := n.cqe.Subscribe(op.sub); err != nil {
				return err
			}
		}
	}
	for _, m := range rs.alertMarks {
		n.cqe.MarkEmitted(m.subID, m.start)
	}
	for _, b := range rs.observed {
		if len(b.Readings) == 0 {
			continue
		}
		n.recoveredAlerts = append(n.recoveredAlerts, n.cqe.Observe(b)...)
	}
	for typ, tr := range rs.types {
		sh := n.shardFor(typ)
		if len(tr.items) > 0 {
			sh.box(typ).items = tr.items
		}
		if tr.pending != nil && len(tr.pending.Readings) > 0 {
			sh.pending[typ] = tr.pending
		}
		if tr.degraded != nil && len(tr.degraded.windows) > 0 {
			sh.degraded[typ] = tr.degraded
		}
	}
	if rs.sawSeq {
		n.seq.Store(rs.seqCounter)
	}
	for _, m := range rs.marks {
		n.replay.Mark(m.origin, m.seq)
	}
	if n.dur.Segments == nil {
		for _, b := range rs.stored {
			if len(b.Readings) == 0 {
				continue
			}
			if err := n.store.Append(b); err != nil {
				return fmt.Errorf("fognode %s: recover store: %w", n.cfg.Spec.ID, err)
			}
		}
	}
	return nil
}
