package fognode

// Tests of the one-outbox mechanism itself: the kind table, and a data
// directory written by the last release before it.

import (
	"context"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// TestKindTable pins what differs between the kinds of item: the send
// rank within a type (batches, then summaries, then alerts — an alert
// never overtakes the readings that explain it) and who may take the
// sibling-relay detour (batches only). The third column, the overflow
// policies, is TestOverflowPolicyCounters.
func TestKindTable(t *testing.T) {
	want := []struct {
		kind  transport.Kind
		relay bool
	}{
		{transport.KindBatch, true},
		{transport.KindSummaryPush, false},
		{transport.KindAlertPush, false},
	}
	if len(kindTable) != len(want) {
		t.Fatalf("kindTable has %d kinds, want %d", len(kindTable), len(want))
	}
	for r, w := range want {
		if kindTable[r].kind != w.kind || rank(w.kind) != r || kindTable[r].relay != w.relay {
			t.Errorf("rank %d = %+v (rank(%s) = %d), want kind %s relay %v", r, kindTable[r], w.kind, rank(w.kind), w.kind, w.relay)
		}
	}

	// The queue keeps rank order, first-in first-out within a rank,
	// whatever order the items were sealed in, and never reorders or
	// queues ahead of what a sender has claimed.
	var q outbox
	for i, k := range []transport.Kind{transport.KindAlertPush, transport.KindBatch, transport.KindSummaryPush, transport.KindBatch, transport.KindAlertPush} {
		q.put(item{kind: k, seq: uint64(i + 1)})
	}
	q.claimed = 1
	q.put(item{kind: transport.KindBatch, seq: 6})
	var got []uint64
	for _, it := range q.items {
		got = append(got, it.seq)
	}
	if want := []uint64{2, 4, 6, 3, 1, 5}; len(got) != len(want) {
		t.Fatalf("queue = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("queue = %v, want %v", got, want)
			}
		}
	}
	q.claimed = 3
	if lo, hi := q.span(transport.KindBatch); lo != hi {
		t.Errorf("span of batches behind 3 claimed items = [%d, %d), want empty", lo, hi)
	}
	q.put(item{kind: transport.KindBatch, seq: 7})
	if q.items[3].seq != 7 {
		t.Errorf("a batch sealed behind a claimed summary queued at %v, want right behind the claim", q.items)
	}
}

// TestRelayCarriesBatchesOnly: with the parent dead and the node in
// relay mode, a type's batch goes around through the sibling while its
// alert push waits for the parent.
func TestRelayCarriesBatchesOnly(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	var mu sync.Mutex
	relayed := map[transport.Kind]int{}
	net := transport.NewSimNetwork()
	net.Register("fog1/d01-s02", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		relayed[msg.Kind]++
		return []byte("ok"), nil
	}))
	n, err := New(Config{Spec: fog1Spec(), Clock: clock, Transport: net, Codec: aggregate.CodecNone,
		Siblings: []string{"fog1/d01-s02"}, RetryBase: time.Second, FailoverAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(windowSub("w", "traffic", time.Minute)); err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0, 1))
	clock.Advance(2 * time.Minute)
	_ = n.Flush(context.Background()) // the parent is not even registered: failure, relay mode
	if n.UpstreamState() != UpstreamRelay {
		t.Fatalf("upstream state = %s, want relay", n.UpstreamState())
	}
	_ = n.Flush(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if relayed[transport.KindRelay] != 1 || len(relayed) != 1 {
		t.Errorf("sibling saw %v, want exactly one relayed batch", relayed)
	}
	if got := n.PendingBatches(); got != 1 {
		t.Errorf("%d delivery units pending, want the alert push alone", got)
	}
}

// legacyBatch and legacyAlert build the bodies the legacy encodings
// below carry.
func legacyBatch(me string, vals ...float64) *model.Batch {
	b := typedBatch("traffic", t0, vals...)
	b.NodeID = me
	return b
}

func legacyAlert(tb testing.TB, me string, seq uint64, start int64) []byte {
	payload, err := protocol.EncodeAlertPush(&protocol.AlertPush{
		Origin: me, Seq: seq, TypeName: "traffic", Category: model.CategoryUrban.String(),
		Alerts: []protocol.Alert{{
			SubID: "w", FiredBy: me, Kind: protocol.AlertKindWindow, StartUnix: start, EndUnix: start + 60,
			Summary: aggregate.Summary{Count: 1, Sum: 1, Min: 1, Max: 1}, Value: 1,
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// legacySnapshot encodes a version-2 snapshot the way the release
// before the one-outbox journal did: sealed and pending batch entries,
// then the subscriptions, then a trailing section of queued alert
// pushes.
func legacySnapshot(tb testing.TB, me string) []byte {
	snap := []byte{2}
	snap = wal.AppendUint64(snap, 500)
	snap = wal.AppendMarkSet(snap, map[string][]uint64{"fog1/child": {9}})
	snap = wal.AppendUvarint(snap, 2)
	snap = append(snap, 1) // sealed
	snap = wal.AppendUint64(snap, 100)
	snap = wal.AppendBytes(snap, sensor.AppendBatch(nil, legacyBatch(me, 1, 2)))
	snap = append(snap, 0) // pending
	snap = wal.AppendUint64(snap, 0)
	snap = wal.AppendBytes(snap, sensor.AppendBatch(nil, legacyBatch(me, 3)))
	snap = wal.AppendUvarint(snap, 0) // subscriptions
	snap = wal.AppendUvarint(snap, 1) // queued alert pushes
	return wal.AppendBytes(snap, legacyAlert(tb, me, 101, 1000))
}

// legacyJournal writes a data directory the way that release did: the
// version-2 snapshot and a log tail of batch seals and commits (record
// types 2 and 3) and alert seals and commits (types 10 and 11).
func legacyJournal(t *testing.T, dir, me string) {
	t.Helper()
	st, err := wal.Open(wal.Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(legacySnapshot(t, me)); err != nil {
		t.Fatal(err)
	}
	own := func(vals ...float64) *model.Batch { return legacyBatch(me, vals...) }
	alert := func(seq uint64, start int64) []byte { return legacyAlert(t, me, seq, start) }

	batch := func(vals ...float64) []byte {
		rec := wal.AppendUint64([]byte{1}, 0)
		rec = wal.AppendString(rec, "")
		return sensor.AppendBatch(rec, own(vals...))
	}
	seal := func(seq uint64, count int) []byte {
		rec := wal.AppendUint64([]byte{2}, seq)
		rec = wal.AppendUvarint(rec, uint64(count))
		return wal.AppendString(rec, "traffic")
	}
	commit := func(seq uint64) []byte {
		return wal.AppendString(wal.AppendUint64([]byte{3}, seq), "traffic")
	}
	alertSeal := func(seq uint64, start int64) []byte {
		return wal.AppendBytes([]byte{10}, alert(seq, start))
	}
	alertCommit := func(seq uint64) []byte {
		rec := wal.AppendUint64([]byte{11}, seq)
		return wal.AppendString(wal.AppendString(rec, me), "traffic")
	}
	for _, rec := range [][]byte{
		batch(4), seal(102, 2), // freezes readings 3 and 4
		batch(5), seal(103, 1), commit(103), // delivered before the crash
		alertSeal(104, 2000),
		alertSeal(105, 3000), alertCommit(105), // delivered before the crash
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDataDirRefused: a data directory written before the
// one-outbox journal — a version-2 snapshot and a log of the retired
// record types — has no store section in its snapshot, so the readings
// its store served are nowhere this journal can rebuild them from. The
// node refuses it with an error naming it, and writes nothing.
func TestLegacyDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	legacyJournal(t, dir, fog1Spec().ID)
	expectRefused(t, dir, dir, "written before", "no store section")
}
