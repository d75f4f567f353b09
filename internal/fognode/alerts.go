package fognode

// Continuous queries: standing subscriptions (internal/cq) evaluated
// incrementally in the ingest hot path, whose fired alerts move upward
// as transport.KindAlertPush items on the type's outbox (shard.go).
//
// Evaluation: every accepted batch is offered to the cq engine right
// after it lands in the temporal store (threshold subscriptions fire
// here); each flush first harvests the windows that closed since the
// last one (window subscriptions fire there). Fired alerts seal into
// an AlertPush under a fresh sequence from the node's shared space.
// A fog tier that receives a child's push queues it verbatim —
// store-and-forward, original identity preserved.
//
// Delivery is at-least-once with two dedup tiers: the receiving
// tier's replay filter drops a retried push by its (Origin, Seq), and
// the cloud stores alerts keyed by their instance identity
// (FiredBy, SubID, StartUnix, Kind), which also absorbs re-batched
// copies when overflow folds an old push's alerts into a younger
// push. On a durable node the journaled seals also carry the emitted
// marks that stop a recovered window from firing twice.

import (
	"encoding/json"
	"fmt"
	"time"

	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// Subscribe registers a standing continuous query on this node. On a
// durable node the registration is journaled first (the acceptance
// gate), so a rebooted node still evaluates it.
func (n *Node) Subscribe(sub cq.Subscription) error {
	if err := sub.Validate(); err != nil {
		return fmt.Errorf("fognode %s: %w", n.cfg.Spec.ID, err)
	}
	if n.dur.Journal != nil {
		doc, err := json.Marshal(sub)
		if err == nil {
			err = n.dur.Journal.WritePayload(recSubscribe, doc)
		}
		if err != nil {
			return fmt.Errorf("fognode %s: subscribe: %w", n.cfg.Spec.ID, err)
		}
	}
	return n.cqe.Subscribe(sub)
}

// Unsubscribe cancels a standing subscription.
func (n *Node) Unsubscribe(id string) bool {
	n.journalUnsubscribe(id)
	return n.cqe.Unsubscribe(id)
}

// Subscriptions lists this node's standing subscriptions.
func (n *Node) Subscriptions() []cq.Subscription { return n.cqe.Subscriptions() }

// observeAlerts offers an accepted batch to the cq engine and seals
// whatever threshold alerts it fired. The engine's lock-free empty
// fast path keeps this one atomic load on nodes without
// subscriptions.
func (n *Node) observeAlerts(b *model.Batch) {
	if alerts := n.cqe.Observe(b); len(alerts) != 0 {
		n.sealAlerts(alerts)
	}
}

// harvestAlerts closes and seals the windows that have ended by now —
// driven from the head of every flush. On a node with subscriptions
// the harvest is journaled first, so replay advances the watermarks
// at the same log position.
func (n *Node) harvestAlerts(now time.Time) {
	if n.cqe.Len() == 0 {
		return
	}
	n.journalHarvest(now)
	if alerts := n.cqe.Harvest(now); len(alerts) != 0 {
		n.sealAlerts(alerts)
	}
}

// sealAlerts groups fired alerts by sensor type and seals one push
// per type onto the owning shard's alert queue, types in first-seen
// order.
func (n *Node) sealAlerts(alerts []cq.Alert) {
	byType := make(map[string][]cq.Alert, 1)
	var order []string
	for _, a := range alerts {
		if _, ok := byType[a.TypeName]; !ok {
			order = append(order, a.TypeName)
		}
		byType[a.TypeName] = append(byType[a.TypeName], a)
	}
	for _, typ := range order {
		n.sealAlertGroup(byType[typ])
	}
}

// sealAlertGroup freezes one type's fired alerts into a push item
// under a fresh delivery sequence and reports it to the alert observer
// — the fire point of the exactly-once ledger. Alerts in the group
// share a type but may come from different subscriptions.
func (n *Node) sealAlertGroup(alerts []cq.Alert) {
	if len(alerts) == 0 {
		return
	}
	me := n.cfg.Spec.ID
	typ := alerts[0].TypeName
	push := protocol.AlertPush{
		Origin:   me,
		Seq:      n.seq.Add(1),
		TypeName: typ,
		Category: alerts[0].Category.String(),
		Alerts:   make([]protocol.Alert, 0, len(alerts)),
	}
	for i := range alerts {
		a := &alerts[i]
		push.Alerts = append(push.Alerts, protocol.Alert{
			SubID:     a.SubID,
			FiredBy:   me,
			Kind:      string(a.Kind),
			StartUnix: a.StartUnix,
			EndUnix:   a.EndUnix,
			Summary:   a.Summary,
			Value:     a.Value,
		})
	}
	payload, err := protocol.EncodeAlertPush(&push)
	if err != nil {
		// An alert the wire codec refuses can never be delivered.
		n.alertsShed.Add(int64(len(push.Alerts)))
		return
	}
	sh := n.shardFor(typ)
	sh.mu.Lock()
	_ = n.sealLocked(sh, typ, item{kind: transport.KindAlertPush, origin: me, seq: push.Seq, class: push.Category, payload: payload}, false)
	n.boundLocked(sh, typ)
	sh.mu.Unlock()
	n.alertsFired.Add(int64(len(push.Alerts)))
	if n.cfg.AlertObserver != nil {
		n.cfg.AlertObserver(push)
	}
}

// foldAlertLocked is the alert kind's overflow policy: the push at
// index i folds into its successor instead of being dropped (each
// alert carries its own FiredBy instance identity, so re-batching
// under the younger push's sequence stays exactly-once downstream).
// The fold is journaled as a re-seal of the merged push — replay
// replaces the earlier seal in place — plus a commit of the folded
// one. Only past maxAlertsPerPush are the oldest instances finally
// shed. The caller holds the shard lock.
func (n *Node) foldAlertLocked(sh *pendingShard, typ string, q *outbox, i int) {
	folded, into := &q.items[i], &q.items[i+1]
	old, err := protocol.DecodeAlertPush(folded.payload)
	next, err2 := protocol.DecodeAlertPush(into.payload)
	if err != nil || err2 != nil {
		return // not payloads this codec sealed: keep both, over the cap
	}
	merged := append(old.Alerts, next.Alerts...)
	over := max(len(merged)-maxAlertsPerPush, 0)
	next.Alerts = merged[over:]
	payload, err := protocol.EncodeAlertPush(next)
	if err != nil {
		return
	}
	n.alertsShed.Add(int64(over))
	n.alertFolds.Inc()
	resealed, gone := *into, *folded
	resealed.payload = payload
	_ = n.sealLocked(sh, typ, resealed, false)
	n.commitLocked(sh, typ, gone)
}

// handleAlertPush is a fog tier's receiving half: a child's push is
// deduped by its (Origin, Seq), journaled as the acceptance gate,
// then queued VERBATIM — original identity preserved — for this
// node's own upward flush. Store-and-forward, not re-ingest: the
// cloud must see the firing node's instance identities unchanged.
func (n *Node) handleAlertPush(payload []byte) ([]byte, error) {
	push, err := protocol.DecodeAlertPush(payload)
	if err != nil {
		return nil, err
	}
	return n.dur.Accept(push.Origin, push.Seq, func() error { return n.absorbAlertPush(push, payload) })
}

// absorbAlertPush is handleAlertPush's apply. The delivery mark lands
// under the shard lock, with the seal (applyPushSeal), so a checkpoint
// never snapshots the queued push without it.
func (n *Node) absorbAlertPush(push *protocol.AlertPush, payload []byte) error {
	// The transport owns payload once Handle returns.
	it := item{kind: transport.KindAlertPush, origin: push.Origin, seq: push.Seq, class: push.Category, payload: append([]byte(nil), payload...)}
	sh := n.shardFor(push.TypeName)
	sh.mu.Lock()
	err := n.sealLocked(sh, push.TypeName, it, true)
	if err == nil {
		n.boundLocked(sh, push.TypeName)
	}
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("fognode %s: alert push: %w", n.cfg.Spec.ID, err)
	}
	n.alertsIn.Add(int64(len(push.Alerts)))
	return nil
}

// AlertsFired reports how many alert instances this node's
// subscriptions fired.
func (n *Node) AlertsFired() int64 { return n.alertsFired.Value() }
