package fognode

import (
	"fmt"
	"sort"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// Graceful degradation: when MaxPendingReadings trims a type's upward
// buffer, a degrading node folds the trimmed readings into
// per-time-window decomposable summaries (the PR 3 push-down type)
// instead of dropping them; the next flush seals the buffer into a
// transport.KindSummaryPush item on the type's outbox (shard.go). An
// overloaded fog node then loses resolution, not information; the
// raw-shed path remains only as the last resort when the summary
// kind's own overflow policy drops a push.
//
// On a durable node the degrade tier is as crash-safe as the raw one:
// the trim is journaled (replay folds the same readings again, through
// the same transition), a child's absorbed push is journaled before it
// is acknowledged, the buffer is part of every snapshot, and a sealed
// push is an item like any other — so preserved + degraded + shed ==
// accepted holds across a crash between fold and push.

// degradeWindow is the time-window granularity degraded readings are
// summarized at.
const degradeWindow = time.Minute

// degradeBuf accumulates one type's degraded readings as per-window
// decomposable summaries, keyed by the window's start instant
// (UnixNano).
type degradeBuf struct {
	category model.Category
	windows  map[int64]aggregate.Summary
}

func newDegradeBuf(cat model.Category) *degradeBuf {
	return &degradeBuf{category: cat, windows: make(map[int64]aggregate.Summary)}
}

// fold merges one reading into its time window. When the buffer is at
// its window cap and the reading opens a new window, it folds into the
// nearest existing window instead — coarser, still lossless in count.
func (d *degradeBuf) fold(r model.Reading, maxWindows int) {
	w := int64(degradeWindow)
	ws := r.Time.UnixNano()
	ws -= ((ws % w) + w) % w // floor for pre-epoch instants too
	if _, ok := d.windows[ws]; !ok && maxWindows > 0 && len(d.windows) >= maxWindows {
		nearest, found := int64(0), false
		for k := range d.windows {
			if !found || abs64(k-ws) < abs64(nearest-ws) {
				nearest, found = k, true
			}
		}
		ws = nearest
	}
	d.windows[ws] = d.windows[ws].Observe(r.Value)
}

// foldAll folds a run of readings at the package's window cap.
func (d *degradeBuf) foldAll(readings []model.Reading) {
	for _, r := range readings {
		d.fold(r, maxDegradedWindows)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// absorb merges a push's windows into the buffer.
func (d *degradeBuf) absorb(push *protocol.SummaryPush) {
	for _, w := range push.Windows {
		d.windows[w.StartUnix] = d.windows[w.StartUnix].Merge(w.Summary)
	}
}

// push freezes the buffer's windows, in time order, as a summary push.
func (d *degradeBuf) push(origin string, seq uint64, typ string) protocol.SummaryPush {
	push := protocol.SummaryPush{
		Origin:   origin,
		Seq:      seq,
		TypeName: typ,
		Category: d.category.String(),
		Windows:  make([]protocol.SummaryWindow, 0, len(d.windows)),
	}
	for ws, s := range d.windows {
		push.Windows = append(push.Windows, protocol.SummaryWindow{
			StartUnix: ws, EndUnix: ws + int64(degradeWindow), Summary: s,
		})
	}
	sort.Slice(push.Windows, func(i, j int) bool {
		return push.Windows[i].StartUnix < push.Windows[j].StartUnix
	})
	return push
}

// degradeBufLocked returns a type's degrade buffer, creating it on
// first use. The caller holds the shard lock.
func (sh *pendingShard) degradeBufLocked(typ string, cat model.Category) *degradeBuf {
	buf, ok := sh.degraded[typ]
	if !ok {
		buf = newDegradeBuf(cat)
		sh.degraded[typ] = buf
	}
	return buf
}

// sealSummaryLocked freezes a type's degrade buffer into a push item
// under a fresh delivery sequence; the seal empties the buffer. Caller
// holds the shard lock.
func (n *Node) sealSummaryLocked(sh *pendingShard, typ string, buf *degradeBuf) {
	push := buf.push(n.cfg.Spec.ID, n.seq.Add(1), typ)
	payload, err := protocol.EncodeJSON(push)
	if err != nil {
		// Finite summaries always encode; what cannot be sent is shed.
		delete(sh.degraded, typ)
		n.shedReads.Add(push.Readings())
		return
	}
	_ = n.sealLocked(sh, typ, item{kind: transport.KindSummaryPush, origin: push.Origin, seq: push.Seq, class: push.Category, payload: payload}, false)
}

// handleSummaryPush is the receiving half of degradation: a child
// pushed degraded windows upward. They are deduped by (origin, seq)
// against retries, journaled as the acceptance gate, then folded into
// this node's own degrade buffer, to be re-emitted upward under this
// node's identity at its next flush — the same combine-and-forward
// shape the batch path has.
func (n *Node) handleSummaryPush(payload []byte) ([]byte, error) {
	var push protocol.SummaryPush
	if err := protocol.DecodeJSON(payload, &push); err != nil {
		return nil, err
	}
	if err := push.Validate(); err != nil {
		return nil, err
	}
	return n.dur.Accept(push.Origin, push.Seq, func() error { return n.absorbSummaryPush(&push, payload) })
}

// absorbSummaryPush is handleSummaryPush's apply. The delivery mark
// lands under the shard lock, with the journal record, so a checkpoint
// never snapshots the windows without it.
func (n *Node) absorbSummaryPush(push *protocol.SummaryPush, payload []byte) error {
	sh := n.shardFor(push.TypeName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := n.dur.Journal.WritePayload(recAbsorb, payload); err != nil {
		return fmt.Errorf("fognode %s: summary push: %w", n.cfg.Spec.ID, err)
	}
	n.applyAbsorb(sh, push)
	n.degradedIn.Add(push.Readings())
	return nil
}

// applyAbsorb is recAbsorb's transition: a summary push's windows merge
// into the type's degrade buffer, under the push's delivery mark (none
// for a checkpointed buffer, which carries no identity). The caller
// holds the shard lock.
func (n *Node) applyAbsorb(sh *pendingShard, push *protocol.SummaryPush) {
	cat, _ := model.ParseCategory(push.Category)
	sh.degradeBufLocked(push.TypeName, cat).absorb(push)
	n.replay.Mark(push.Origin, push.Seq)
}
