package fognode

// Live shard migration: the data-movement half of the elastic
// rebalance plane.
//
// When the elastic topology reassigns a sensor type from this node to
// a sibling (a node joined or is leaving the district), the old owner
// hands the type's delivery state — its outbox (the pending and
// degrade buffers are sealed onto it first), its standing
// continuous-query subscriptions with their live window state, and
// the replay-filter marks — to the new owner over
// transport.KindMigrate, then forwards any still-arriving edge ingest
// of the type until the routing tier catches up. The handoff is
// exactly-once without a two-phase commit because everything moves as
// SEALED items verbatim:
//
//   - the moved items keep their origin identity and delivery
//     sequences (batches travel as the same SealSeq envelopes the
//     upward path sends), so the shared parent's per-origin replay
//     filter keeps deduping them no matter which sibling finally
//     delivers;
//   - the target marks each chunk's (From, TransferSeq) in its replay
//     filter and journals the raw chunk before acknowledging, so a
//     retried chunk is acknowledged without re-absorbing and a target
//     crash recovers the absorbed state;
//   - the source journals the handoff (recMigrateStart before the
//     sends, a commit per item the target acknowledged), so a source
//     crash at any boundary recovers to a state where at worst BOTH
//     siblings hold a copy — and both drain to the same deduping
//     parent, which keeps delivery exactly-once.
//
// State machine of one type's handoff, source side:
//
//	OWNED ──MigrateOut──▶ CLAIMED  buffers sealed, the whole outbox
//	                               claimed under the type's send lock,
//	                               recMigrateStart journaled
//	CLAIMED ──chunks acked──▶ MOVED acknowledged items leave the outbox
//	                               and are committed; the caller flips
//	                               routing to the target
//	CLAIMED ──send fails──▶ OWNED  the unsent items never left the
//	                               outbox; the claim is released
//
// and target side:
//
//	chunk ──dedup (From,TransferSeq)──▶ ack (already absorbed)
//	chunk ──recMigrateIn──▶ outbox (items verbatim) ──▶ next flush
//	        delivers under the ORIGINAL origins and sequences

import (
	"context"
	"fmt"
	"sort"

	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// SetRoute redirects future edge ingest of a sensor type to its new
// owner: the type was migrated away and this node no longer delivers
// it upward. An empty or self target clears the route.
func (n *Node) SetRoute(typ, target string) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if target == "" || target == n.cfg.Spec.ID {
		delete(n.routes, typ)
		return
	}
	n.routes[typ] = target
}

// ClearRoute restores local ownership of a sensor type's ingest.
func (n *Node) ClearRoute(typ string) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	delete(n.routes, typ)
}

// Route returns the node a type's edge ingest is being forwarded to,
// or "" when this node owns the type locally.
func (n *Node) Route(typ string) string {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return n.routes[typ]
}

// Routes returns a copy of the active forwarding table.
func (n *Node) Routes() map[string]string {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	out := make(map[string]string, len(n.routes))
	for typ, target := range n.routes {
		out[typ] = target
	}
	return out
}

// sortBatchReadings restores time order (ties broken by sensor then
// value) so sealed payloads — and their compressed sizes — are
// deterministic for a given set of readings regardless of arrival
// interleaving.
func sortBatchReadings(b *model.Batch) {
	sort.SliceStable(b.Readings, func(i, j int) bool {
		ri, rj := &b.Readings[i], &b.Readings[j]
		if !ri.Time.Equal(rj.Time) {
			return ri.Time.Before(rj.Time)
		}
		if ri.SensorID != rj.SensorID {
			return ri.SensorID < rj.SensorID
		}
		return ri.Value < rj.Value
	})
}

// MigrateOut moves one sensor type's buffered delivery state to a new
// owner. The pending and degrade buffers are sealed like a flush would
// seal them, then every item on the type's outbox is claimed under its
// send lock and travels to the target in bounded KindMigrate chunks,
// along with a snapshot of this node's replay-filter marks so the
// target inherits the dedup horizon. An item leaves the outbox when
// the chunk that carried it is acknowledged; on a send failure the
// rest is simply still there, sequences intact, and the error is
// returned. The caller may retry — a chunk the target already absorbed
// is deduped there, and even a chunk absorbed under a lost
// acknowledgement only yields a second copy that the shared parent
// dedupes by its frozen (origin, seq).
//
// MigrateOut does not flip routing: the caller (the elastic topology
// layer) sets the route on this node and its ring before or after the
// handoff.
func (n *Node) MigrateOut(ctx context.Context, typ, target string) error {
	me := n.cfg.Spec.ID
	if typ == "" || target == "" || target == me {
		return fmt.Errorf("fognode %s: migrate %q to %q: invalid handoff", me, typ, target)
	}
	if n.cfg.Transport == nil {
		return fmt.Errorf("fognode %s: migrate: no transport configured", me)
	}
	n.flightMu.RLock()
	defer n.flightMu.RUnlock()

	sh := n.shardFor(typ)
	sh.mu.Lock()
	q := sh.box(typ)
	sh.mu.Unlock()
	q.sendMu.Lock()
	defer q.sendMu.Unlock()

	sh.mu.Lock()
	n.sealPendingLocked(sh, typ, 0)
	if buf, ok := sh.degraded[typ]; ok && len(buf.windows) > 0 {
		n.sealSummaryLocked(sh, typ, buf)
	}
	q.claimed = len(q.items)
	items := q.items[:q.claimed:q.claimed]
	sh.mu.Unlock()
	// Standing subscriptions leave with the type, live window state
	// included, so a half-built window keeps accumulating on the new
	// owner instead of silently losing its partial aggregate.
	subs := n.cqe.Extract(typ)

	moved := make([]bool, len(items))
	subsMoved, err := n.sendTransfers(ctx, typ, target, items, subs, moved)

	sh.mu.Lock()
	kept := q.items[:0]
	for i := range q.items {
		if i < len(moved) && moved[i] {
			// Acknowledged by the new owner: no longer this node's
			// responsibility, and recovery must not resurrect it here.
			n.commit(typ, &q.items[i])
		} else {
			kept = append(kept, q.items[i])
		}
	}
	clear(q.items[len(kept):])
	q.items, q.claimed = kept, 0
	if err != nil {
		n.boundLocked(sh, typ)
	}
	sh.mu.Unlock()
	if !subsMoved {
		for i := range subs {
			_ = n.cqe.Install(subs[i])
		}
	}
	if err != nil {
		return fmt.Errorf("fognode %s: migrate %s to %s: %w", me, typ, target, err)
	}
	return nil
}

// sendTransfers seals and ships one type's claimed items in chunks
// bounded by protocol.MaxMigrateWireSize, setting moved[i] for every
// item whose chunk the target acknowledged. At least one chunk is
// always sent — an empty handoff still carries the replay-mark
// snapshot and acts as the ownership handshake that clears the
// target's stale route. The first chunk additionally carries the
// continuous-query state (every alert item and the subscription
// snapshots); subsMoved reports whether it was acknowledged.
func (n *Node) sendTransfers(ctx context.Context, typ, target string, items []item, subs []cq.SubSnapshot, moved []bool) (subsMoved bool, err error) {
	me := n.cfg.Spec.ID
	now := n.cfg.Clock.Now()

	// Seal every item up front; the encoded sizes drive the chunking.
	sc := n.getScratch()
	payloads := make([][]byte, len(items))
	for i := range items {
		if payloads[i], err = n.sealItem(sc, nil, &items[i], now); err != nil {
			n.putScratch(sc)
			return false, fmt.Errorf("seal entry: %w", err)
		}
	}
	n.putScratch(sc)
	subDocs := make([][]byte, len(subs))
	cqCost := 0
	for i := range subs {
		if subDocs[i], err = cq.EncodeSubSnapshot(&subs[i]); err != nil {
			return false, fmt.Errorf("encode cq state: %w", err)
		}
		cqCost += len(subDocs[i]) + 10
	}

	// Greedy chunk assignment by encoded size, in queue order except
	// that the alert items (the queue's tail) go first: they ride the
	// first chunk whatever its size, beside the replay-mark snapshot
	// and the subscriptions.
	marks := n.replay.Dump()
	size := 16 + cqCost // first chunk starts with the marks and subs
	for origin, seqs := range marks {
		size += len(origin) + 10 + 9*len(seqs)
	}
	budget := protocol.MaxMigrateWireSize() - 512
	firstAlert := len(items)
	for firstAlert > 0 && items[firstAlert-1].kind == transport.KindAlertPush {
		firstAlert--
	}
	chunks := [][]int{nil}
	for k := range items {
		i := (firstAlert + k) % len(items)
		cost := len(payloads[i]) + 19
		// Rotate a non-empty chunk when the next item would overflow
		// it; an item that overflows an empty chunk is taken anyway
		// (progress) and left for the encoder's size check to reject.
		if size+cost > budget && size > 0 && i < firstAlert {
			chunks = append(chunks, nil)
			size = 0
		}
		chunks[len(chunks)-1] = append(chunks[len(chunks)-1], i)
		size += cost
	}

	// Reserve every chunk's transfer sequence up front and journal the
	// advanced counter (recMigrateStart) before the first send. The
	// target marks each absorbed (From, TransferSeq) in its replay
	// filter, so a source crash must never recover to a counter that
	// mints those sequences again: a reused sequence would be silently
	// deduped at the target and its readings lost.
	seqHigh := n.seq.Add(uint64(len(chunks)))
	seqLow := seqHigh - uint64(len(chunks)) + 1
	_ = n.journalMigrateStart(typ, target, seqHigh)

	for ci, chunk := range chunks {
		t := &protocol.MigrateTransfer{
			TypeName:    typ,
			From:        me,
			To:          target,
			TransferSeq: seqLow + uint64(ci),
		}
		if ci == 0 {
			t.Marks = marks
			t.Subs = subDocs
		}
		readings := int64(0)
		for _, i := range chunk {
			switch it := &items[i]; it.kind {
			case transport.KindBatch:
				t.Entries = append(t.Entries, protocol.MigrateEntry{Seq: it.seq, Payload: payloads[i]})
				readings += int64(len(it.b.Readings))
			case transport.KindSummaryPush:
				s := protocol.MigrateSummary{Seq: it.seq}
				if err := protocol.DecodeJSON(it.payload, &s.Push); err != nil {
					return subsMoved, fmt.Errorf("summary item: %w", err)
				}
				t.Summaries = append(t.Summaries, s)
			case transport.KindAlertPush:
				t.Alerts = append(t.Alerts, protocol.MigrateAlert{Seq: it.seq, Payload: payloads[i]})
			}
		}
		payload, err := protocol.EncodeMigrateTransfer(t)
		if err != nil {
			return subsMoved, err
		}
		msg := transport.Message{
			From:    me,
			To:      target,
			Kind:    transport.KindMigrate,
			Class:   transport.ClassMigrate,
			Payload: payload,
		}
		// A failed chunk ends the handoff; a retried MigrateOut
		// re-chunks under fresh transfer sequences, and any chunk the
		// target absorbed under a lost acknowledgement is deduped
		// downstream by its frozen origins.
		if _, err := n.cfg.Transport.Send(ctx, msg); err != nil {
			return subsMoved, err
		}
		n.migOutTransfers.Inc()
		n.migOutReads.Add(readings)
		n.migOutBytes.Add(msg.WireSize())
		for _, i := range chunk {
			moved[i] = true
		}
		if ci == 0 {
			// The subscriptions rode this chunk and now belong to the
			// target: journal the handoff so a recovered source does
			// not re-evaluate them.
			subsMoved = true
			for i := range subs {
				_ = n.journalUnsubscribe(subs[i].Sub.ID)
			}
		}
	}
	return subsMoved, nil
}

// handleMigrate absorbs one handoff chunk: the items enter the outbox
// VERBATIM — origin identities and frozen sequences preserved, no
// re-ingest — so this node's next flush delivers them exactly as the
// old owner would have, and every replay filter downstream keeps
// working. The raw chunk is journaled (recMigrateIn) before any state
// change, the chunk's own (From, TransferSeq) mark makes retries
// idempotent, and the moved replay marks merge into this node's filter
// so it inherits the source's dedup horizon.
func (n *Node) handleMigrate(msg transport.Message) ([]byte, error) {
	me := n.cfg.Spec.ID
	t, err := protocol.DecodeMigrateTransfer(msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("fognode %s: migrate: %w", me, err)
	}
	if t.To != me {
		return nil, fmt.Errorf("fognode %s: migrate chunk addressed to %q", me, t.To)
	}
	// Decode every section up front: a malformed chunk is rejected
	// whole, before any state or journal change.
	items, readings, err := transferItems(t)
	if err != nil {
		return nil, fmt.Errorf("fognode %s: %w", me, err)
	}
	subs := make([]*cq.SubSnapshot, 0, len(t.Subs))
	for i := range t.Subs {
		snap, err := cq.DecodeSubSnapshot(t.Subs[i])
		if err != nil {
			return nil, fmt.Errorf("fognode %s: migrate subscription %d: %w", me, i, err)
		}
		subs = append(subs, snap)
	}
	return n.dur.Accept(t.From, t.TransferSeq, func() error { return n.absorbMigrate(t, msg.Payload, items, readings, subs) })
}

// absorbMigrate is handleMigrate's apply over a decoded chunk. The
// chunk's own mark, the moved marks and the moved subscriptions land
// under the shard lock, with the journal record, so a checkpoint never
// snapshots the moved items without them.
func (n *Node) absorbMigrate(t *protocol.MigrateTransfer, payload []byte, items []item, readings int64, subs []*cq.SubSnapshot) error {
	sh := n.shardFor(t.TypeName)
	sh.mu.Lock()
	// The journal append is the acceptance gate, exactly like a batch
	// ingest: if the chunk cannot be made durable it is rejected and
	// the source keeps the state.
	if err := n.dur.Journal.WritePayload(recMigrateIn, payload); err != nil {
		sh.mu.Unlock()
		return fmt.Errorf("fognode %s: migrate: %w", n.cfg.Spec.ID, err)
	}
	q := sh.box(t.TypeName)
	for _, it := range items {
		q.put(it)
	}
	n.boundLocked(sh, t.TypeName)
	// Moved subscriptions install with their live window state;
	// Install merges if this node already watches the type with the
	// same definition (its own partial windows survive the merge).
	for _, snap := range subs {
		_ = n.cqe.Install(*snap)
	}
	n.replay.Mark(t.From, t.TransferSeq)
	for origin, seqs := range t.Marks {
		for _, seq := range seqs {
			n.replay.Mark(origin, seq)
		}
	}
	sh.mu.Unlock()
	// Receiving a chunk is the ownership handshake: this node owns the
	// type now, so a stale forwarding route must not bounce it back.
	n.ClearRoute(t.TypeName)
	n.migInTransfers.Inc()
	n.migInReads.Add(readings)
	return nil
}

// ingestRouted handles an edge ingest of a type whose ownership
// migrated away: the batch is journaled and merged into the pending
// buffer like any acceptance, immediately sealed onto the outbox (the
// same transitions recovery replays), and forwarded to the new owner
// as a single-entry transfer whose TransferSeq is the batch's own
// sequence. If the forward fails the item simply stays queued under
// that same frozen sequence — whether it later drains upward from
// here, moves with a MigrateOut, or was absorbed by the target under a
// lost acknowledgement, the shared parent sees one (origin, seq) and
// keeps it exactly once.
func (n *Node) ingestRouted(b *model.Batch, target string) error {
	me := n.cfg.Spec.ID
	typ := b.TypeName
	sh := n.shardFor(typ)
	sh.mu.Lock()
	q := sh.box(typ)
	sh.mu.Unlock()
	// The forward is a send of this type like any other: under the
	// type's send lock, with the queue claimed while the item is read
	// outside the shard lock.
	q.sendMu.Lock()
	defer q.sendMu.Unlock()

	sh.mu.Lock()
	if err := n.journalBatch(b, "", 0); err != nil {
		sh.mu.Unlock()
		return fmt.Errorf("fognode %s: ingest: %w", me, err)
	}
	n.bufferLocked(sh, b)
	it := n.sealPendingLocked(sh, typ, 0)
	q.claimed = len(q.items)
	sh.mu.Unlock()

	err := n.forwardSealed(&it, target)

	sh.mu.Lock()
	q.claimed = 0
	if err == nil {
		q.drop(it.origin, it.seq)
	} else {
		n.boundLocked(sh, typ)
	}
	sh.mu.Unlock()
	if err == nil {
		n.commit(typ, &it)
	}
	return nil
}

// forwardSealed ships one batch item to a type's new owner as a
// single-entry migration transfer.
func (n *Node) forwardSealed(it *item, target string) error {
	me := n.cfg.Spec.ID
	if n.cfg.Transport == nil {
		return fmt.Errorf("fognode %s: no transport configured", me)
	}
	sc := n.getScratch()
	defer n.putScratch(sc)
	payload, err := sc.sealer.SealSeq(sc.payload[:0], it.b, n.cfg.Codec, it.seq)
	if err != nil {
		return err
	}
	sc.payload = payload
	wire, err := protocol.EncodeMigrateTransfer(&protocol.MigrateTransfer{
		TypeName:    it.b.TypeName,
		From:        me,
		To:          target,
		TransferSeq: it.seq,
		Entries:     []protocol.MigrateEntry{{Seq: it.seq, Payload: payload}},
	})
	if err != nil {
		return err
	}
	msg := transport.Message{
		From:    me,
		To:      target,
		Kind:    transport.KindMigrate,
		Class:   transport.ClassMigrate,
		Payload: wire,
	}
	if _, err = n.cfg.Transport.Send(context.Background(), msg); err != nil {
		return err
	}
	n.migOutTransfers.Inc()
	n.migOutReads.Add(int64(len(it.b.Readings)))
	n.migOutBytes.Add(msg.WireSize())
	return nil
}

// MigratedOutTransfers reports how many handoff chunks this node
// shipped to new owners (forwarded edge ingests included).
func (n *Node) MigratedOutTransfers() int64 { return n.migOutTransfers.Value() }

// MigratedOutReadings reports how many readings left this node inside
// migration transfers.
func (n *Node) MigratedOutReadings() int64 { return n.migOutReads.Value() }

// MigratedOutBytes reports the wire bytes of every migration transfer
// this node shipped — the quantity the rebalance-traffic bound is
// asserted against.
func (n *Node) MigratedOutBytes() int64 { return n.migOutBytes.Value() }

// MigratedInTransfers reports how many handoff chunks this node
// absorbed as a new owner.
func (n *Node) MigratedInTransfers() int64 { return n.migInTransfers.Value() }

// MigratedInReadings reports how many readings arrived in absorbed
// migration transfers.
func (n *Node) MigratedInReadings() int64 { return n.migInReads.Value() }
