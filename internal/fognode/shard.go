package fognode

import (
	"sync"

	"f2c/internal/describe"
	"f2c/internal/model"
	"f2c/internal/shard"
	"f2c/internal/transport"
)

// pendingShards is the pending-buffer shard count, a power of two so a
// type's hash masks onto it. Sixteen shards keep contention negligible
// for the catalog's ~21 sensor types while staying cheap to scan on
// flush.
const pendingShards = 16

// item is one sealed delivery unit: a payload frozen under the
// delivery identity (origin, seq) it will present on every attempt, so
// a retry after a lost acknowledgement is recognized by the receiver's
// replay filter. Everything that moves upward is an item — raw
// batches, degrade summaries, continuous-query alerts, this node's own
// or absorbed verbatim from a sibling or a child — and every item
// follows one contract: journaled at seal, queued on its type's
// outbox, sent at least once in queue order, committed on
// acknowledgement, carried unchanged by relay and migration.
type item struct {
	kind   transport.Kind
	origin string
	seq    uint64
	// class is the accounting class of the send (the category name).
	class string
	// b is a batch item's body, kept decoded so the readings bound can
	// trim it while it is parked and the send can sort, stamp and seal
	// it late into the flush worker's scratch buffers.
	b *model.Batch
	// payload is a push item's body: the encoded wire payload, sent as
	// it is.
	payload []byte
}

// kindTable is everything that differs between the kinds of item; a
// kind's index is its send rank within a type (an alert never
// overtakes the readings that explain it).
//
// Overflow, enforced by boundLocked whenever a type's parked backlog
// grows or a failed send releases its claim:
//
//	batch    MaxPendingReadings over parked batches + the pending
//	         buffer; the oldest readings are trimmed and folded into
//	         the degrade buffer (DegradeToSummary) or shed
//	summary  maxParkedPushes; the oldest push is dropped and the
//	         readings it summarized finally counted shed
//	alert    maxParkedPushes; the oldest push's instances fold into
//	         its successor, which keeps at most maxAlertsPerPush
var kindTable = [...]struct {
	kind transport.Kind
	// relay allows the sibling-relay detour around a dead parent. It
	// exists to drain bulk data; pushes wait for the parent (a summary
	// relieves an overload that a relay would only move sideways, and
	// an alert must not arrive ahead of its readings).
	relay bool
}{
	{transport.KindBatch, true},
	{transport.KindSummaryPush, false},
	{transport.KindAlertPush, false},
}

const (
	// maxParkedPushes bounds how many unsent pushes of one kind a type
	// may park.
	maxParkedPushes = 64
	// maxDegradedWindows bounds how many distinct windows a type's
	// degrade buffer may hold; beyond it readings fold into the nearest
	// existing window — coarser, still counted.
	maxDegradedWindows = 64
	// maxAlertsPerPush bounds how many alert instances folding may
	// accumulate into one push; beyond it the oldest instances are shed
	// — the alert tier's last resort.
	maxAlertsPerPush = 4096
)

// rank returns a kind's index in kindTable.
func rank(k transport.Kind) int {
	for i := range kindTable {
		if kindTable[i].kind == k {
			return i
		}
	}
	return len(kindTable)
}

// outbox is one sensor type's queue of sealed items awaiting upward
// delivery, ordered by rank and first-in first-out within a rank. An
// item leaves the queue only when its send was acknowledged, so a
// failed send leaves the tail exactly where it was and the queue is at
// every instant the whole of what the journal must cover.
type outbox struct {
	// sendMu serializes the senders of this type (a flush draining it
	// upward, a migration shipping it sideways), which is what makes a
	// type's delivery order structural: two overlapping flushes cannot
	// interleave their sends. It is held across network sends and is
	// taken before, never under, the shard lock.
	sendMu sync.Mutex
	// items and claimed are guarded by the shard lock. The first
	// claimed items belong to the sendMu holder, which works on them
	// outside the shard lock: nothing else may trim, fold or reorder
	// them, and new items queue behind them.
	items   []item
	claimed int
}

// span returns the index range of the unclaimed items of one kind.
func (q *outbox) span(k transport.Kind) (lo, hi int) {
	r := rank(k)
	lo = q.claimed
	for lo < len(q.items) && rank(q.items[lo].kind) < r {
		lo++
	}
	hi = lo
	for hi < len(q.items) && q.items[hi].kind == k {
		hi++
	}
	return lo, hi
}

// put queues an item behind the unclaimed items of its rank.
func (q *outbox) put(it item) {
	_, at := q.span(it.kind)
	q.items = append(q.items, item{})
	copy(q.items[at+1:], q.items[at:])
	q.items[at] = it
}

// remove deletes the item at index i.
func (q *outbox) remove(i int) {
	copy(q.items[i:], q.items[i+1:])
	q.items[len(q.items)-1] = item{} // release the body
	q.items = q.items[:len(q.items)-1]
}

// drop removes the item with the given delivery identity; an empty
// origin matches any.
func (q *outbox) drop(origin string, seq uint64) {
	for i := range q.items {
		if it := &q.items[i]; it.seq == seq && (origin == "" || it.origin == origin) {
			q.remove(i)
			return
		}
	}
}

// trimOldest removes the drop oldest readings buffered behind the
// claimed items — the heads of the parked batch items, then the head
// of the pending buffer p — showing take each run before it goes.
func (q *outbox) trimOldest(p *model.Batch, drop int, take func(b *model.Batch, k int, parked bool)) {
	cut := func(b *model.Batch, parked bool) {
		k := min(len(b.Readings), drop)
		take(b, k, parked)
		b.Readings = b.Readings[k:]
		drop -= k
	}
	for lo, hi := q.span(transport.KindBatch); drop > 0 && lo < hi; hi-- {
		cut(q.items[lo].b, true)
		if len(q.items[lo].b.Readings) > 0 {
			return
		}
		q.remove(lo)
	}
	if drop > 0 && p != nil {
		cut(p, false)
	}
}

// pendingShard guards one hash slice of the per-type delivery state,
// so concurrent Ingest calls on different sensor types proceed without
// contending on a node-wide lock. Per type: pending accumulates fresh
// readings until a flush seals them, degraded accumulates the window
// summaries of readings the bound folded away (and of summaries pushed
// up by children) until a flush seals them, and outbox holds every
// sealed item until the parent acknowledges it.
type pendingShard struct {
	mu       sync.Mutex
	pending  map[string]*model.Batch
	degraded map[string]*degradeBuf
	outbox   map[string]*outbox
	tags     map[string]describe.Tags
}

// box returns a type's outbox, creating it on first use. The caller
// holds the shard lock.
func (sh *pendingShard) box(typ string) *outbox {
	q, ok := sh.outbox[typ]
	if !ok {
		q = &outbox{}
		sh.outbox[typ] = q
	}
	return q
}

// newPendingShards allocates a node's pending shards.
func newPendingShards() []pendingShard {
	shards := make([]pendingShard, pendingShards)
	for i := range shards {
		shards[i].pending = make(map[string]*model.Batch)
		shards[i].degraded = make(map[string]*degradeBuf)
		shards[i].outbox = make(map[string]*outbox)
		shards[i].tags = make(map[string]describe.Tags)
	}
	return shards
}

// shardFor returns the shard owning a type name.
func (n *Node) shardFor(typeName string) *pendingShard {
	return &n.shards[shard.FNV32a(typeName)&n.shardMask]
}
