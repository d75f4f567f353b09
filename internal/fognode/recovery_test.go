package fognode

// Durability tests: crash a durable node (rebuild it from its data
// directory without Close) and assert the recovered delivery state —
// pending buffers, retry queues, frozen delivery sequences, replay-
// filter marks, local store — matches the pre-crash committed state.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// dedupParent is a scriptable upstream endpoint with the real
// receive-path dedup: it decodes sealed batches, drops replayed
// delivery sequences, and counts every preserved reading by value.
type dedupParent struct {
	mu     sync.Mutex
	mode   string // "up", "down", "acklost"
	filter *protocol.ReplayFilter
	seen   map[float64]int
}

func newDedupParent() *dedupParent {
	return &dedupParent{mode: "up", filter: protocol.NewReplayFilter(0), seen: make(map[float64]int)}
}

func (p *dedupParent) set(mode string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode = mode
}

func (p *dedupParent) Send(_ context.Context, msg transport.Message) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if msg.Kind != transport.KindBatch {
		return nil, fmt.Errorf("dedupParent: unexpected kind %q", msg.Kind)
	}
	if p.mode == "down" {
		return nil, errors.New("parent down")
	}
	b, _, seq, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
	if err != nil {
		return nil, err
	}
	if !p.filter.Seen(b.NodeID, seq) {
		p.filter.Mark(b.NodeID, seq)
		for _, r := range b.Readings {
			p.seen[r.Value]++
		}
	}
	if p.mode == "acklost" {
		return nil, errors.New("ack lost after processing")
	}
	return []byte("ok"), nil
}

// counts returns a copy of the preserved value histogram.
func (p *dedupParent) counts() map[float64]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[float64]int, len(p.seen))
	for v, c := range p.seen {
		out[v] = c
	}
	return out
}

func newDurableNode(t testing.TB, dir string, tr transport.Transport, maxPending int) *Node {
	t.Helper()
	n, err := New(Config{
		Spec:               fog1Spec(),
		Clock:              sim.NewVirtualClock(t0),
		Transport:          tr,
		Codec:              aggregate.CodecNone,
		MaxPendingReadings: maxPending,
		Durability:         &wal.Config{Dir: dir, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func typedBatch(typ string, at time.Time, vals ...float64) *model.Batch {
	b := &model.Batch{NodeID: "edge", TypeName: typ, Category: model.CategoryUrban, Collected: at}
	for i, v := range vals {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: fmt.Sprintf("%s/%d", typ, i%7), TypeName: typ, Category: model.CategoryUrban,
			Time: at.Add(time.Duration(i) * time.Millisecond), Value: v, Unit: "u",
		})
	}
	return b
}

// TestRecoveryRestoresPendingAndStore crashes a durable node with
// buffered data and asserts the rebuilt node resumes with the same
// pending state and serves the same local reads.
func TestRecoveryRestoresPendingAndStore(t *testing.T) {
	dir := t.TempDir()
	n := newDurableNode(t, dir, nil, 0)
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2, 3))
	_ = n.Ingest(typedBatch("noise_level", t0.Add(time.Second), 4, 5))
	_ = n.Ingest(typedBatch("traffic", t0.Add(2*time.Second), 6))

	wantPending := n.PendingReadings()
	wantBatches := n.PendingBatches()

	re := newDurableNode(t, dir, nil, 0) // crash: no Close
	if got := re.PendingReadings(); got != wantPending {
		t.Errorf("recovered PendingReadings = %d, want %d", got, wantPending)
	}
	if got := re.PendingBatches(); got != wantBatches {
		t.Errorf("recovered PendingBatches = %d, want %d", got, wantBatches)
	}
	if got := re.Query("traffic", t0, t0.Add(time.Hour)); len(got) != 4 {
		t.Errorf("recovered store traffic readings = %d, want 4", len(got))
	}
	if r, ok := re.Latest("noise_level/0"); !ok || r.Value != 4 {
		t.Errorf("recovered Latest = %+v ok=%v", r, ok)
	}
}

// TestRecoveryDeliversExactlyOnceAfterAckLoss is the hard crash case:
// a batch is delivered but the acknowledgement is lost, the node
// crashes, and the recovered node must retry under the same frozen
// delivery sequence so the parent's replay filter drops the duplicate.
func TestRecoveryDeliversExactlyOnceAfterAckLoss(t *testing.T) {
	dir := t.TempDir()
	parent := newDedupParent()
	n := newDurableNode(t, dir, parent, 0)
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2, 3))

	parent.set("acklost")
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("flush with lost ack reported success")
	}

	parent.set("up")
	re := newDurableNode(t, dir, parent, 0) // crash after the lost ack
	if re.PendingBatches() == 0 {
		t.Fatal("recovered node lost the unacknowledged batch")
	}
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for v, c := range parent.counts() {
		if c != 1 {
			t.Errorf("value %v preserved %d times, want exactly once", v, c)
		}
	}
	if got := len(parent.counts()); got != 3 {
		t.Errorf("parent preserved %d distinct readings, want 3", got)
	}
	if re.PendingBatches() != 0 {
		t.Errorf("recovered node still has %d pending batches after flush", re.PendingBatches())
	}
}

// TestRecoveryFreshSequencesNeverCollide: a recovered node's sequence
// counter continues past every sequence its predecessor used, so new
// batches are never falsely deduped against old marks.
func TestRecoveryFreshSequencesNeverCollide(t *testing.T) {
	dir := t.TempDir()
	parent := newDedupParent()
	n := newDurableNode(t, dir, parent, 0)
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2))
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	re := newDurableNode(t, dir, parent, 0)
	_ = re.Ingest(typedBatch("traffic", t0.Add(time.Second), 3, 4))
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(parent.counts()); got != 4 {
		t.Errorf("parent preserved %d distinct readings, want 4 (fresh post-recovery sequence collided?)", got)
	}
}

// TestRecoveryReplayFilterSurvivesRestart is the receive-side
// regression: a receiver that deduped a delivery, then crashed, must
// still recognize the sender's retry of that delivery after recovery
// instead of re-accepting it.
func TestRecoveryReplayFilterSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	n := newDurableNode(t, dir, nil, 0)

	child := typedBatch("traffic", t0, 10, 11)
	child.NodeID = "fog1/d01-s09"
	payload, err := (&protocol.Sealer{}).SealSeq(nil, child, aggregate.CodecNone, 77)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{From: "fog1/d01-s09", To: n.ID(), Kind: transport.KindBatch, Payload: payload}
	if _, err := n.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	if n.DuplicateBatches() != 0 {
		t.Fatalf("first delivery counted as duplicate")
	}

	re := newDurableNode(t, dir, nil, 0) // receiver crashes between the duplicate deliveries
	if _, err := re.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	if got := re.DuplicateBatches(); got != 1 {
		t.Errorf("retry after receiver restart suppressed %d duplicates, want 1", got)
	}
	if got := re.PendingReadings(); got != 2 {
		t.Errorf("recovered pending readings = %d, want 2 (duplicate re-accepted?)", got)
	}
}

// TestCheckpointKeepsDeliveryMarks: every sequenced apply marks its
// (origin, seq) under the shard lock the checkpoint cuts under. Each
// row applies one delivery the way Accept's apply does, checkpoints
// before Accept's own mark could run, crashes and reopens: the
// snapshot must carry the mark with the state, so the sender's retry
// is a duplicate and the held state does not grow.
func TestCheckpointKeepsDeliveryMarks(t *testing.T) {
	const child = "fog1/d01-s09"
	batch := typedBatch("traffic", t0, 10, 11, 12)
	batch.NodeID = child
	sealed, err := (&protocol.Sealer{}).SealSeq(nil, batch, aggregate.CodecNone, 7)
	if err != nil {
		t.Fatal(err)
	}
	summary := protocol.SummaryPush{
		Origin: child, Seq: 8, TypeName: "traffic", Category: "urban",
		Windows: []protocol.SummaryWindow{{
			StartUnix: t0.UnixNano(), EndUnix: t0.Add(time.Minute).UnixNano(),
			Summary: aggregate.Summary{Count: 3, Sum: 30, Min: 9, Max: 11},
		}},
	}
	summaryDoc, err := protocol.EncodeJSON(summary)
	if err != nil {
		t.Fatal(err)
	}
	alert := &protocol.AlertPush{
		Origin: child, Seq: 9, TypeName: "traffic", Category: "urban",
		Alerts: []protocol.Alert{{
			SubID: "hot", FiredBy: child, Kind: protocol.AlertKindThreshold,
			StartUnix: t0.Unix(), EndUnix: t0.Unix() + 60,
			Summary: aggregate.Summary{Count: 1, Sum: 12, Min: 12, Max: 12}, Value: 12,
		}},
	}
	alertDoc, err := protocol.EncodeAlertPush(alert)
	if err != nil {
		t.Fatal(err)
	}
	chunk := &protocol.MigrateTransfer{
		TypeName: "traffic", From: "fog1/d01-s02", To: fog1Spec().ID, TransferSeq: 10,
		Entries: []protocol.MigrateEntry{{Seq: 7, Payload: sealed}},
	}
	chunkDoc, err := protocol.EncodeMigrateTransfer(chunk)
	if err != nil {
		t.Fatal(err)
	}
	degraded := func(n *Node) int {
		var total int64
		if buf := n.shardFor("traffic").degraded["traffic"]; buf != nil {
			for _, w := range buf.windows {
				total += w.Count
			}
		}
		return int(total)
	}

	for _, tc := range []struct {
		kind  transport.Kind
		apply func(n *Node) error
		doc   []byte
		held  func(n *Node) int
	}{
		{transport.KindBatch, func(n *Node) error { return n.ingest(batch, child, 7) }, sealed, (*Node).PendingReadings},
		{transport.KindSummaryPush, func(n *Node) error { return n.absorbSummaryPush(&summary, summaryDoc) }, summaryDoc, degraded},
		{transport.KindAlertPush, func(n *Node) error { return n.absorbAlertPush(alert, alertDoc) }, alertDoc, (*Node).PendingBatches},
		{transport.KindMigrate, func(n *Node) error {
			items, readings, err := transferItems(chunk)
			if err != nil {
				return err
			}
			return n.absorbMigrate(chunk, chunkDoc, items, readings, nil)
		}, chunkDoc, (*Node).PendingReadings},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			dir := t.TempDir()
			n := newDurableNode(t, dir, nil, 0)
			if err := tc.apply(n); err != nil {
				t.Fatal(err)
			}
			if err := n.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			n.Discard()

			re := newDurableNode(t, dir, nil, 0)
			before := tc.held(re)
			if before == 0 {
				t.Fatal("the checkpoint lost the applied state")
			}
			msg := transport.Message{From: child, To: re.ID(), Kind: tc.kind, Payload: tc.doc}
			if _, err := re.Handle(context.Background(), msg); err != nil {
				t.Fatal(err)
			}
			if got := re.DuplicateBatches(); got != 1 {
				t.Errorf("retry after the checkpoint suppressed %d duplicates, want 1", got)
			}
			if got := tc.held(re); got != before {
				t.Errorf("held state %d -> %d: the retry was re-accepted", before, got)
			}
		})
	}
}

// TestRecoveryCommitAdvancesSequenceCounter: a committed sequence was
// used even when its seal record is missing (a dropped best-effort
// append), so replay must still keep the recovered counter past it —
// otherwise a fresh batch could reuse the sequence and be silently
// deduped by the parent.
func TestRecoveryCommitAdvancesSequenceCounter(t *testing.T) {
	rs := newRecoveryState()
	rec := []byte{recCommit}
	rec = wal.AppendUint64(rec, 9001)
	rec = wal.AppendString(rec, "traffic")
	if err := rs.applyRecord(rec); err != nil {
		t.Fatal(err)
	}
	if !rs.sawSeq || rs.seqCounter < 9001 {
		t.Errorf("recovered seq counter = %d (saw=%v), want >= 9001 from the orphan commit", rs.seqCounter, rs.sawSeq)
	}
}

// TestRecoveryFromCheckpoint folds state into a snapshot, appends a
// tail, and recovers snapshot + tail.
func TestRecoveryFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	parent := newDedupParent()
	parent.set("down")
	n := newDurableNode(t, dir, parent, 0)
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2))
	_ = n.Flush(context.Background()) // fails, freezes a sequence on the retry queue
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0.Add(time.Second), 3)) // journal tail past the snapshot

	parent.set("up")
	re := newDurableNode(t, dir, parent, 0)
	if got := re.PendingReadings(); got != 3 {
		t.Fatalf("recovered PendingReadings = %d, want 3 (snapshot + tail)", got)
	}
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(parent.counts()); got != 3 {
		t.Errorf("parent preserved %d distinct readings, want 3", got)
	}
	for v, c := range parent.counts() {
		if c != 1 {
			t.Errorf("value %v preserved %d times, want exactly once", v, c)
		}
	}
}

// TestRecoveryShedNotResurrected: readings dropped by the
// MaxPendingReadings bound must stay dropped after recovery.
func TestRecoveryShedNotResurrected(t *testing.T) {
	dir := t.TempDir()
	n := newDurableNode(t, dir, nil, 4)
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2, 3))
	_ = n.Ingest(typedBatch("traffic", t0.Add(time.Second), 4, 5, 6)) // bound 4: sheds 1, 2
	if got := n.ShedReadings(); got != 2 {
		t.Fatalf("shed = %d, want 2", got)
	}
	if got := n.PendingReadings(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}

	re := newDurableNode(t, dir, nil, 4)
	if got := re.PendingReadings(); got != 4 {
		t.Errorf("recovered pending = %d, want 4 (shed readings resurrected?)", got)
	}
}

// TestRecoveryCloseThenReopen: a clean Close checkpoints, so reopening
// recovers from the snapshot alone with an empty log.
func TestRecoveryCloseThenReopen(t *testing.T) {
	dir := t.TempDir()
	parent := newDedupParent()
	parent.set("down")
	n := newDurableNode(t, dir, parent, 0)
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2, 3))
	_ = n.Close(context.Background()) // flush fails (parent down), state checkpointed

	parent.set("up")
	re := newDurableNode(t, dir, parent, 0)
	if got := re.PendingReadings(); got != 3 {
		t.Fatalf("reopened PendingReadings = %d, want 3", got)
	}
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(parent.counts()); got != 3 {
		t.Errorf("parent preserved %d distinct readings, want 3", got)
	}
}

// TestRecoveryPropertySeeded drives randomized ingest/flush/crash/
// checkpoint interleavings over a seeded workload against a flaky,
// deduping parent. Invariants, for every seed:
//
//   - a crash never changes the delivery state: the recovered node's
//     pending/retry totals equal the pre-crash totals, and every
//     buffered reading is queryable in the recovered store;
//   - after the parent heals and the node drains, every accepted
//     reading is preserved exactly once (no loss across any crash
//     point, no duplicate past the dedup filter).
//
// A failure message carries the seed that reproduces it (same
// convention as chaos.TestChaosSeedReproducible).
func TestRecoveryPropertySeeded(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			recoveryProperty(t, seed)
		})
	}
}

func recoveryProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	parent := newDedupParent()
	n := newDurableNode(t, dir, parent, 0)
	types := []string{"traffic", "noise_level", "air_quality"}
	ctx := context.Background()

	accepted := make(map[float64]bool)
	nextVal := 0.0
	at := t0
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("recovery property (rerun with seed %d): %s", seed, fmt.Sprintf(format, args...))
	}

	for op := 0; op < 160; op++ {
		at = at.Add(time.Second)
		switch k := rng.Intn(10); {
		case k < 5: // ingest
			typ := types[rng.Intn(len(types))]
			vals := make([]float64, 1+rng.Intn(6))
			for i := range vals {
				nextVal++
				vals[i] = nextVal
			}
			if err := n.Ingest(typedBatch(typ, at, vals...)); err != nil {
				failf("ingest: %v", err)
			}
			for _, v := range vals {
				accepted[v] = true
			}
		case k < 8: // flush against a parent in a random mood
			parent.set([]string{"up", "down", "acklost"}[rng.Intn(3)])
			_ = n.Flush(ctx) // failures requeue; that is the point
		case k < 9: // crash + recover, then compare against pre-crash state
			wantReadings, wantBatches := n.PendingReadings(), n.PendingBatches()
			n = newDurableNode(t, dir, parent, 0)
			if got := n.PendingReadings(); got != wantReadings {
				failf("op %d: recovered PendingReadings = %d, want %d", op, got, wantReadings)
			}
			if got := n.PendingBatches(); got != wantBatches {
				failf("op %d: recovered PendingBatches = %d, want %d", op, got, wantBatches)
			}
			for _, typ := range types {
				inStore := make(map[float64]bool)
				for _, r := range n.Query(typ, t0, at.Add(time.Hour)) {
					inStore[r.Value] = true
				}
				for _, r := range pendingValues(n, typ) {
					if !inStore[r] {
						failf("op %d: buffered %s reading %v missing from recovered store", op, typ, r)
					}
				}
			}
		default: // checkpoint at a random point
			if err := n.Checkpoint(); err != nil {
				failf("checkpoint: %v", err)
			}
		}
	}

	// Heal and drain.
	parent.set("up")
	for round := 0; round < 8 && n.PendingBatches() > 0; round++ {
		if err := n.Flush(ctx); err != nil {
			failf("drain flush: %v", err)
		}
	}
	if n.PendingBatches() != 0 {
		failf("node did not drain: %d batches pending", n.PendingBatches())
	}
	got := parent.counts()
	for v := range accepted {
		switch got[v] {
		case 0:
			failf("reading %v lost (accepted but never preserved)", v)
		case 1: // exactly once
		default:
			failf("reading %v preserved %d times", v, got[v])
		}
	}
	for v := range got {
		if !accepted[v] {
			failf("phantom reading %v preserved but never accepted", v)
		}
	}
}

// pendingValues collects the values buffered for upward delivery
// (pending + retry) for one type.
func pendingValues(n *Node, typ string) []float64 {
	sh := n.shardFor(typ)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []float64
	for _, it := range sh.box(typ).items {
		if it.b == nil {
			continue
		}
		for _, r := range it.b.Readings {
			out = append(out, r.Value)
		}
	}
	if p, ok := sh.pending[typ]; ok {
		for _, r := range p.Readings {
			out = append(out, r.Value)
		}
	}
	return out
}
