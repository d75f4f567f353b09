package fognode

// Live shard migration tests: the handoff must move every piece of a
// type's delivery state, keep delivery exactly-once through retries,
// lost acknowledgements, and crashes on either side, and leave exactly
// one owner after recovery.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// migrateNet routes messages between a set of live nodes and a
// deduping parent endpoint, with a scriptable failure mode for
// KindMigrate traffic.
type migrateNet struct {
	mu       sync.Mutex
	parentID string
	parent   *dedupParent
	nodes    map[string]transport.Handler
	// migrateMode: "up" delivers, "fail" refuses before the handler
	// runs, "acklost" runs the handler then loses the reply.
	migrateMode string
}

func newMigrateNet(parentID string) *migrateNet {
	return &migrateNet{
		parentID:    parentID,
		parent:      newDedupParent(),
		nodes:       make(map[string]transport.Handler),
		migrateMode: "up",
	}
}

func (m *migrateNet) setMigrate(mode string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migrateMode = mode
}

func (m *migrateNet) attach(id string, h transport.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[id] = h
}

func (m *migrateNet) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	if msg.To == m.parentID {
		return m.parent.Send(ctx, msg)
	}
	m.mu.Lock()
	h := m.nodes[msg.To]
	mode := m.migrateMode
	m.mu.Unlock()
	if h == nil {
		return nil, transport.ErrUnknownEndpoint
	}
	if msg.Kind == transport.KindMigrate && mode == "fail" {
		return nil, errors.New("migrate link down")
	}
	reply, err := h.Handle(ctx, msg)
	if err != nil {
		return nil, err
	}
	if msg.Kind == transport.KindMigrate && mode == "acklost" {
		return nil, errors.New("migrate ack lost after processing")
	}
	return reply, nil
}

func newMigrateNode(t testing.TB, net *migrateNet, id, dir string) *Node {
	t.Helper()
	spec := fog1Spec()
	spec.ID = id
	cfg := Config{
		Spec:      spec,
		Clock:     sim.NewVirtualClock(t0),
		Transport: net,
		Codec:     aggregate.CodecNone,
	}
	if dir != "" {
		cfg.Durability = &wal.Config{Dir: dir, SnapshotEvery: -1}
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.attach(id, n)
	return n
}

// TestMigrateOutMovesAllState: pending buffer, frozen retry queue and
// degrade buffer all leave the source and reach the target, which
// delivers them upward under their ORIGINAL identities, exactly once.
func TestMigrateOutMovesAllState(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", "")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	// A frozen retry batch: flush against a down parent.
	_ = src.Ingest(typedBatch("traffic", t0, 1, 2, 3))
	net.parent.set("down")
	_ = src.Flush(ctx)
	// Plus a fresh pending buffer.
	_ = src.Ingest(typedBatch("traffic", t0.Add(time.Second), 4, 5))

	if err := src.MigrateOut(ctx, "traffic", dst.ID()); err != nil {
		t.Fatal(err)
	}
	if got := src.PendingBatches(); got != 0 {
		t.Fatalf("source still holds %d delivery units after handoff", got)
	}
	if got := dst.PendingReadings(); got != 5 {
		t.Fatalf("target absorbed %d readings, want 5", got)
	}
	if src.MigratedOutReadings() != 5 || dst.MigratedInReadings() != 5 {
		t.Fatalf("migration counters out=%d in=%d, want 5/5",
			src.MigratedOutReadings(), dst.MigratedInReadings())
	}

	net.parent.set("up")
	if err := dst.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	counts := net.parent.counts()
	if len(counts) != 5 {
		t.Fatalf("parent preserved %d distinct readings, want 5", len(counts))
	}
	for v, c := range counts {
		if c != 1 {
			t.Errorf("reading %v preserved %d times, want exactly once", v, c)
		}
	}
}

// TestMigrateRetryAfterLostAckIsExactlyOnce: the hard case — the
// target absorbs a chunk but the acknowledgement is lost, the source
// reinstalls and retries, the target absorbs a second copy. Both
// copies carry the same frozen (origin, seq), so the shared parent
// keeps each reading exactly once.
func TestMigrateRetryAfterLostAckIsExactlyOnce(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", "")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	_ = src.Ingest(typedBatch("traffic", t0, 1, 2, 3))

	net.setMigrate("acklost")
	if err := src.MigrateOut(ctx, "traffic", dst.ID()); err == nil {
		t.Fatal("handoff with lost ack reported success")
	}
	if got := src.PendingReadings(); got != 3 {
		t.Fatalf("source reinstalled %d readings after failed handoff, want 3", got)
	}

	net.setMigrate("up")
	if err := src.MigrateOut(ctx, "traffic", dst.ID()); err != nil {
		t.Fatal(err)
	}
	// The target now holds two copies of the sealed batch (absorbed
	// under two different transfer sequences) — the parent dedupes.
	if err := dst.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	counts := net.parent.counts()
	if len(counts) != 3 {
		t.Fatalf("parent preserved %d distinct readings, want 3", len(counts))
	}
	for v, c := range counts {
		if c != 1 {
			t.Errorf("reading %v preserved %d times, want exactly once", v, c)
		}
	}
}

// TestMigrateDuplicateChunkNotDecoded: a retried chunk whose (From,
// TransferSeq) already landed is acknowledged as a duplicate before
// its items are decoded, so a copy whose item payload is corrupt is
// still acknowledged, counted in ingest.duplicates, and adds nothing.
func TestMigrateDuplicateChunkNotDecoded(t *testing.T) {
	const from = "fog1/d01-s01"
	net := newMigrateNet("fog2/d01")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	b := typedBatch("traffic", t0, 1, 2)
	b.NodeID = from
	payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecFlate, 5)
	if err != nil {
		t.Fatal(err)
	}
	send := func(payload []byte) error {
		wire, err := protocol.EncodeMigrateTransfer(&protocol.MigrateTransfer{
			TypeName: "traffic", From: from, To: dst.ID(), TransferSeq: 9,
			Items: []protocol.MigrateItem{{Kind: byte(rank(transport.KindBatch)), Payload: payload}},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = dst.Handle(context.Background(), transport.Message{
			From: from, To: dst.ID(), Kind: transport.KindMigrate, Payload: wire,
		})
		return err
	}
	if err := send(payload); err != nil {
		t.Fatal(err)
	}
	dups := dst.DuplicateBatches()
	corrupt := append([]byte(nil), payload...)
	for i := len(corrupt) / 2; i < len(corrupt); i++ {
		corrupt[i] ^= 0xff
	}
	if _, _, err := protocol.DecodeBatchPayload(corrupt); err == nil {
		t.Fatal("test harness bug: the corrupted item still decodes")
	}
	if err := send(corrupt); err != nil {
		t.Fatalf("retried chunk with a corrupt item: %v, want it acknowledged as a duplicate", err)
	}
	if got := dst.DuplicateBatches() - dups; got != 1 {
		t.Errorf("ingest.duplicates rose by %d, want 1", got)
	}
	if got := dst.PendingReadings(); got != 2 {
		t.Errorf("target holds %d readings, want the first copy's 2", got)
	}
}

// TestMigrateChunksBounded: a handoff larger than one transfer splits
// into multiple bounded chunks, every chunk under the wire limit, and
// nothing is lost across the split.
func TestMigrateChunksBounded(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", "")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	// Freeze many retry batches so the handoff must chunk: each failed
	// flush parks one sealed batch of ~100 readings (~3 KiB sealed).
	net.parent.set("down")
	total := 0
	for i := 0; i < 24; i++ {
		vals := make([]float64, 100)
		for j := range vals {
			total++
			vals[j] = float64(total)
		}
		_ = src.Ingest(typedBatch("traffic", t0.Add(time.Duration(i)*time.Second), vals...))
		_ = src.Flush(ctx)
	}

	if err := src.migrateOut(ctx, "traffic", dst.ID(), 8<<10); err != nil {
		t.Fatal(err)
	}
	if got := src.MigratedOutTransfers(); got < 2 {
		t.Fatalf("handoff used %d transfers, want >= 2 (chunking)", got)
	}
	if got := dst.PendingReadings(); got != total {
		t.Fatalf("target absorbed %d readings, want %d", got, total)
	}

	net.parent.set("up")
	for round := 0; round < 4 && dst.PendingBatches() > 0; round++ {
		if err := dst.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	counts := net.parent.counts()
	if len(counts) != total {
		t.Fatalf("parent preserved %d distinct readings, want %d", len(counts), total)
	}
}

// TestIngestForwardsRoutedTypes: once a route is set, edge ingest of
// the moved type is forwarded to the new owner as a single-entry
// transfer and delivered upward under the SOURCE's identity — the
// source keeps serving local reads but no longer queues upward state.
func TestIngestForwardsRoutedTypes(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", "")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	src.SetRoute("traffic", dst.ID())
	if err := src.Ingest(typedBatch("traffic", t0, 7, 8)); err != nil {
		t.Fatal(err)
	}
	if got := src.PendingBatches(); got != 0 {
		t.Fatalf("source queued %d delivery units for a routed type", got)
	}
	if got := dst.PendingReadings(); got != 2 {
		t.Fatalf("target holds %d forwarded readings, want 2", got)
	}
	// Local real-time reads still work at the ingesting section.
	if r, ok := src.Latest("traffic/0"); !ok || r.Value != 7 {
		t.Fatalf("source Latest = %+v ok=%v, want 7", r, ok)
	}

	if err := dst.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	counts := net.parent.counts()
	if len(counts) != 2 {
		t.Fatalf("parent preserved %d readings, want 2", len(counts))
	}

	// An unrouted type keeps the local path.
	src.ClearRoute("traffic")
	_ = src.Ingest(typedBatch("traffic", t0.Add(time.Minute), 9))
	if got := src.PendingBatches(); got != 1 {
		t.Fatalf("source queued %d delivery units after ClearRoute, want 1", got)
	}
}

// TestDurableRoutedIngestStoresOnce: on a durable node the batch
// record a routed edge ingest journals is its local copy's store
// append, so the source's range reads hold each reading once, live and
// after a crash — whether the forward landed or the batch stayed
// parked.
func TestDurableRoutedIngestStoresOnce(t *testing.T) {
	dir := t.TempDir()
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", dir)
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	src.SetRoute("traffic", dst.ID())
	if err := src.Ingest(typedBatch("traffic", t0, 7, 8)); err != nil {
		t.Fatal(err)
	}
	net.setMigrate("fail")
	if err := src.Ingest(typedBatch("traffic", t0.Add(time.Minute), 9)); err != nil {
		t.Fatal(err)
	}
	check := func(life string, n *Node) {
		t.Helper()
		var got []float64
		for _, r := range n.Query("traffic", t0, t0.Add(time.Hour)) {
			got = append(got, r.Value)
		}
		sort.Float64s(got)
		if fmt.Sprint(got) != "[7 8 9]" {
			t.Errorf("%s: source stores %v, want [7 8 9] once each", life, got)
		}
	}
	check("live", src)
	src.Discard()
	re := newMigrateNode(t, net, "fog1/d01-s01", dir)
	defer re.Discard()
	check("recovered", re)
}

// TestIngestRoutedFallsBackWhenTargetDown: a forward that cannot
// reach the new owner parks the sealed batch locally under its frozen
// sequence; it drains upward from the source and stays exactly-once
// even if the target absorbed a copy before the link died.
func TestIngestRoutedFallsBackWhenTargetDown(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", "")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	src.SetRoute("traffic", dst.ID())

	net.setMigrate("fail")
	if err := src.Ingest(typedBatch("traffic", t0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := src.PendingReadings(); got != 2 {
		t.Fatalf("source parked %d readings after failed forward, want 2", got)
	}

	// The ack-lost shape: target absorbed, source parked a copy too.
	net.setMigrate("acklost")
	if err := src.Ingest(typedBatch("traffic", t0.Add(time.Second), 3)); err != nil {
		t.Fatal(err)
	}
	if got := dst.PendingReadings(); got != 1 {
		t.Fatalf("target absorbed %d readings under lost ack, want 1", got)
	}

	net.setMigrate("up")
	if err := src.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dst.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	counts := net.parent.counts()
	if len(counts) != 3 {
		t.Fatalf("parent preserved %d distinct readings, want 3", len(counts))
	}
	for v, c := range counts {
		if c != 1 {
			t.Errorf("reading %v preserved %d times, want exactly once", v, c)
		}
	}
}

// TestMigrateMovesReplayMarks: the target inherits the source's dedup
// horizon, so a child's retry of a batch the SOURCE already accepted
// is recognized by the TARGET after the handoff.
func TestMigrateMovesReplayMarks(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", "")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	child := typedBatch("traffic", t0, 10, 11)
	child.NodeID = "edge/e1"
	payload, err := (&protocol.Sealer{}).SealSeq(nil, child, aggregate.CodecNone, 42)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{From: "edge/e1", To: src.ID(), Kind: transport.KindBatch, Payload: payload}
	if _, err := src.Handle(ctx, msg); err != nil {
		t.Fatal(err)
	}

	if err := src.MigrateOut(ctx, "traffic", dst.ID()); err != nil {
		t.Fatal(err)
	}

	// The child retries the same delivery against the new owner.
	msg.To = dst.ID()
	if _, err := dst.Handle(ctx, msg); err != nil {
		t.Fatal(err)
	}
	if got := dst.DuplicateBatches(); got != 1 {
		t.Fatalf("target suppressed %d duplicates, want 1 (marks not inherited?)", got)
	}
	if err := dst.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	counts := net.parent.counts()
	for v, c := range counts {
		if c != 1 {
			t.Errorf("reading %v preserved %d times, want exactly once", v, c)
		}
	}
	if len(counts) != 2 {
		t.Fatalf("parent preserved %d readings, want 2", len(counts))
	}
}

// TestMigrateRejectsBadChunks: malformed, misaddressed and
// type-mismatched chunks are refused without state changes.
func TestMigrateRejectsBadChunks(t *testing.T) {
	net := newMigrateNet("fog2/d01")
	dst := newMigrateNode(t, net, "fog1/d01-s02", "")
	ctx := context.Background()

	send := func(payload []byte) error {
		_, err := dst.Handle(ctx, transport.Message{
			From: "fog1/d01-s01", To: dst.ID(), Kind: transport.KindMigrate, Payload: payload,
		})
		return err
	}
	if err := send([]byte("garbage")); err == nil {
		t.Error("garbage chunk accepted")
	}

	mk := func(seq uint64, mutate func(*protocol.MigrateTransfer)) []byte {
		b := typedBatch("traffic", t0, 1)
		b.NodeID = "fog1/d01-s01"
		payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, seq)
		if err != nil {
			t.Fatal(err)
		}
		tr := &protocol.MigrateTransfer{
			TypeName: "traffic", From: "fog1/d01-s01", To: dst.ID(), TransferSeq: 9,
			Items: []protocol.MigrateItem{{Kind: byte(rank(transport.KindBatch)), Payload: payload}},
		}
		mutate(tr)
		wire, err := protocol.EncodeMigrateTransfer(tr)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	if err := send(mk(5, func(tr *protocol.MigrateTransfer) { tr.To = "fog1/d01-s09" })); err == nil ||
		!strings.Contains(err.Error(), "addressed to") {
		t.Errorf("misaddressed chunk: err = %v", err)
	}
	if err := send(mk(0, func(*protocol.MigrateTransfer) {})); err == nil ||
		!strings.Contains(err.Error(), "without a sequence") {
		t.Errorf("unsequenced batch: err = %v", err)
	}
	if err := send(mk(5, func(tr *protocol.MigrateTransfer) { tr.TypeName = "noise_level" })); err == nil ||
		!strings.Contains(err.Error(), "transfer") {
		t.Errorf("type-mismatched chunk: err = %v", err)
	}
	if err := send(mk(5, func(tr *protocol.MigrateTransfer) { tr.Items[0].Kind = byte(len(kindTable)) })); err == nil ||
		!strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown item kind: err = %v", err)
	}
	if got := dst.PendingReadings(); got != 0 {
		t.Fatalf("rejected chunks left %d readings behind", got)
	}
}

// TestMigrateItemChecks: every item of a chunk is checked the same
// way, whatever its kind — it carries a sequence, belongs to the
// chunk's type, and a summary push is a valid one. A chunk with one
// bad item is refused whole, before its journal append: nothing is
// queued, nothing is logged, and the chunk's own mark is not taken,
// so the corrected chunk is still absorbed.
func TestMigrateItemChecks(t *testing.T) {
	const from = "fog1/d01-s01"
	summary := func(mutate func(*protocol.SummaryPush)) protocol.MigrateItem {
		p := protocol.SummaryPush{
			Origin: from, Seq: 6, TypeName: "traffic", Category: "urban",
			Windows: []protocol.SummaryWindow{{
				StartUnix: t0.UnixNano(), EndUnix: t0.Add(time.Minute).UnixNano(),
				Summary: aggregate.Summary{Count: 2, Sum: 3, Min: 1, Max: 2},
			}},
		}
		mutate(&p)
		doc, err := protocol.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		return protocol.MigrateItem{Kind: byte(rank(transport.KindSummaryPush)), Payload: doc}
	}
	alert := func(typ string) protocol.MigrateItem {
		doc, err := protocol.EncodeAlertPush(&protocol.AlertPush{
			Origin: from, Seq: 7, TypeName: typ, Category: "urban",
			Alerts: []protocol.Alert{{
				SubID: "w", FiredBy: from, Kind: protocol.AlertKindWindow, StartUnix: 1, EndUnix: 2,
				Summary: aggregate.Summary{Count: 1, Sum: 1, Min: 1, Max: 1},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return protocol.MigrateItem{Kind: byte(rank(transport.KindAlertPush)), Payload: doc}
	}
	batch := func(seq uint64) protocol.MigrateItem {
		b := typedBatch("traffic", t0, 1)
		b.NodeID = from
		payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, seq)
		if err != nil {
			t.Fatal(err)
		}
		return protocol.MigrateItem{Kind: byte(rank(transport.KindBatch)), Payload: payload}
	}
	good := []protocol.MigrateItem{batch(5), summary(func(*protocol.SummaryPush) {}), alert("traffic")}

	for _, tc := range []struct {
		name string
		bad  protocol.MigrateItem
		want string
	}{
		{"entry without seq", batch(0), "item 0: without a sequence"},
		{"summary without seq", summary(func(p *protocol.SummaryPush) { p.Seq = 0 }), "item 1: without a sequence"},
		{"invalid push", summary(func(p *protocol.SummaryPush) { p.Origin = "" }), "needs an origin"},
		{"foreign summary push", summary(func(p *protocol.SummaryPush) { p.TypeName = "noise_level" }), `type "noise_level" in a "traffic" transfer`},
		{"foreign alert push", alert("noise_level"), `type "noise_level" in a "traffic" transfer`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newMigrateNet("fog2/d01")
			dir := t.TempDir()
			dst := newMigrateNode(t, net, "fog1/d01-s02", dir)
			send := func(items []protocol.MigrateItem) error {
				wire, err := protocol.EncodeMigrateTransfer(&protocol.MigrateTransfer{
					TypeName: "traffic", From: from, To: dst.ID(), TransferSeq: 9, Items: items,
				})
				if err != nil {
					t.Fatal(err)
				}
				_, err = dst.Handle(context.Background(), transport.Message{
					From: from, To: dst.ID(), Kind: transport.KindMigrate, Payload: wire,
				})
				return err
			}
			items := append([]protocol.MigrateItem(nil), good...)
			items[rank(kindTable[tc.bad.Kind].kind)] = tc.bad
			before := dirListing(t, dir)
			if err := send(items); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to name %q", err, tc.want)
			}
			if after := dirListing(t, dir); after != before {
				t.Errorf("the refused chunk reached the journal:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			if got := dst.PendingBatches(); got != 0 {
				t.Errorf("the refused chunk queued %d items", got)
			}
			if err := send(good); err != nil {
				t.Fatalf("the corrected chunk: %v", err)
			}
			if got := dst.PendingBatches(); got != len(good) {
				t.Errorf("the corrected chunk queued %d items, want %d", got, len(good))
			}
		})
	}
}

// TestMigrationRecoverySeeded is the crash-safety property: random
// interleavings of ingest, flush, handoff (against a flaky migrate
// link and a flaky parent), crashes of EITHER side at WAL-record
// boundaries, and checkpoints must always converge — after healing
// and draining — to every accepted reading preserved exactly once at
// the parent, no phantoms, and a single owner (the source holds
// nothing for a type whose handoff committed). A failure message
// carries the reproducing seed.
func TestMigrationRecoverySeeded(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			migrationRecoveryProperty(t, seed)
		})
	}
}

func migrationRecoveryProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	srcDir, dstDir := t.TempDir(), t.TempDir()
	net := newMigrateNet("fog2/d01")
	src := newMigrateNode(t, net, "fog1/d01-s01", srcDir)
	dst := newMigrateNode(t, net, "fog1/d01-s02", dstDir)
	ctx := context.Background()

	accepted := make(map[float64]bool)
	nextVal := 0.0
	at := t0
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("migration property (rerun with seed %d): %s", seed, fmt.Sprintf(format, args...))
	}

	for op := 0; op < 140; op++ {
		at = at.Add(time.Second)
		switch k := rng.Intn(12); {
		case k < 5: // edge ingest at the source (routed or not)
			vals := make([]float64, 1+rng.Intn(5))
			for i := range vals {
				nextVal++
				vals[i] = nextVal
			}
			if err := src.Ingest(typedBatch("traffic", at, vals...)); err != nil {
				failf("op %d ingest: %v", op, err)
			}
			for _, v := range vals {
				accepted[v] = true
			}
		case k < 7: // flush either side against a parent in a random mood
			net.parent.set([]string{"up", "down", "acklost"}[rng.Intn(3)])
			_ = src.Flush(ctx)
			_ = dst.Flush(ctx)
		case k < 9: // handoff over a flaky migrate link
			net.setMigrate([]string{"up", "up", "fail", "acklost"}[rng.Intn(4)])
			err := src.MigrateOut(ctx, "traffic", dst.ID())
			net.setMigrate("up")
			if err == nil {
				src.SetRoute("traffic", dst.ID())
			}
		case k < 10: // crash + recover the source at a WAL-record boundary
			routes := src.Routes()
			src = newMigrateNode(t, net, "fog1/d01-s01", srcDir)
			for typ, target := range routes {
				src.SetRoute(typ, target)
			}
		case k < 11: // crash + recover the target
			dst = newMigrateNode(t, net, "fog1/d01-s02", dstDir)
		default: // checkpoint a random side
			n := src
			if rng.Intn(2) == 1 {
				n = dst
			}
			if err := n.Checkpoint(); err != nil {
				failf("op %d checkpoint: %v", op, err)
			}
		}
	}

	// Heal everything and drain both siblings.
	net.parent.set("up")
	net.setMigrate("up")
	for round := 0; round < 10 && (src.PendingBatches() > 0 || dst.PendingBatches() > 0); round++ {
		_ = src.Flush(ctx)
		_ = dst.Flush(ctx)
	}
	if src.PendingBatches() != 0 || dst.PendingBatches() != 0 {
		failf("did not drain: src=%d dst=%d delivery units",
			src.PendingBatches(), dst.PendingBatches())
	}

	// Conservation, exactly once: every accepted reading is preserved
	// exactly once at the parent, and nothing phantom appears.
	got := net.parent.counts()
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

	// Single ownership: after a final committed handoff and drain, the
	// source holds no delivery state for the moved type.
	if err := src.MigrateOut(ctx, "traffic", dst.ID()); err != nil {
		failf("final handoff: %v", err)
	}
	src.SetRoute("traffic", dst.ID())
	if got := len(pendingValues(src, "traffic")); got != 0 {
		failf("source still owns %d readings after committed handoff", got)
	}
	if err := dst.Flush(ctx); err != nil {
		failf("final target drain: %v", err)
	}
}

// TestMigrateJournalReplay exercises the two migration record arms of
// replay on a node, and the refusal of the retired third.
func TestMigrateJournalReplay(t *testing.T) {
	// recMigrateCommit (type 6) was written before the one-outbox
	// journal: a log holding one is refused, not half-read.
	retired := []byte{6}
	retired = wal.AppendString(retired, "traffic")
	retired = wal.AppendUvarint(retired, 1)
	retired = wal.AppendUint64(retired, 100)
	if _, err := openNodeAt(writeRecords(t, nil, retired)); err == nil {
		t.Fatal("a retired migrate-commit record replayed")
	}

	// recMigrateStart leaves the queued items alone but advances the
	// counter past the handoff's reserved transfer sequences (above any
	// random base, so only the record can have put it there).
	const high = 1<<63 + 150
	start := []byte{recMigrateStart}
	start = wal.AppendString(start, "traffic")
	start = wal.AppendString(start, "fog1/d01-s02")
	start = wal.AppendUint64(start, high)
	seal3 := func(n *Node) {
		if err := n.Ingest(typedBatch("traffic", t0, 100, 101, 102)); err != nil {
			t.Fatal(err)
		}
		sh := n.shardFor("traffic")
		sh.mu.Lock()
		sealChunkedLocked(n, sh, "traffic", 1)
		sh.mu.Unlock()
	}
	n, err := openNodeAt(writeRecords(t, seal3, start))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.shardFor("traffic").outbox["traffic"].items); got != 3 {
		t.Fatalf("migrate start changed the recovered outbox: %d items, want 3", got)
	}
	if got := n.seq.Load(); got != high {
		t.Fatalf("seq counter = %d, want %d (migrate start watermark)", got, uint64(high))
	}
	n.Discard()

	// recMigrateIn re-absorbs the chunk's items and marks verbatim; the
	// foreign sequence, though higher, does not advance the counter.
	b := typedBatch("traffic", t0, 7, 8)
	b.NodeID = "fog1/d01-s03"
	payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, high+350)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := protocol.EncodeMigrateTransfer(&protocol.MigrateTransfer{
		TypeName: "traffic", From: "fog1/d01-s03", To: fog1Spec().ID, TransferSeq: 77,
		Items: []protocol.MigrateItem{{Kind: byte(rank(transport.KindBatch)), Payload: payload}},
		Marks: map[string][]uint64{"edge/e1": {9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := wal.AppendBytes([]byte{recMigrateIn}, wire)
	if n, err = openNodeAt(writeRecords(t, nil, start, in)); err != nil {
		t.Fatal(err)
	}
	defer n.Discard()
	items := n.shardFor("traffic").outbox["traffic"].items
	if len(items) != 1 || items[0].seq != high+350 || items[0].origin != "fog1/d01-s03" || len(items[0].b.Readings) != 2 {
		t.Fatalf("replayed absorb queued %+v, want one foreign batch at seq %d", items, uint64(high+350))
	}
	marks := n.replay.Dump()
	if fmt.Sprint(marks["edge/e1"]) != "[9]" || fmt.Sprint(marks["fog1/d01-s03"]) != "[77]" {
		t.Errorf("replayed absorb marks = %v, want edge/e1 9 and fog1/d01-s03 77", marks)
	}
	if got := n.seq.Load(); got != high {
		t.Errorf("absorbed foreign sequences moved the counter to %d, want %d", got, uint64(high))
	}
}

// writeRecords opens a durable node on a fresh dir, runs live on it,
// appends the raw records, and crashes it, returning the dir.
func writeRecords(t *testing.T, live func(*Node), recs ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	n := newDurableNode(t, dir, nil, 0)
	if live != nil {
		live(n)
	}
	for _, rec := range recs {
		if err := n.dur.Journal.Write(func(buf []byte) []byte { return append(buf, rec...) }); err != nil {
			t.Fatal(err)
		}
	}
	n.Discard()
	return dir
}

// silentOwner is a new owner that keeps the connection open and never
// answers: its sends block until the caller's context ends. The parent
// acknowledges everything.
type silentOwner struct {
	mu        sync.Mutex
	delivered int
}

func (s *silentOwner) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	if msg.Kind == transport.KindMigrate {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s.mu.Lock()
	s.delivered++
	s.mu.Unlock()
	return []byte("ok"), nil
}

// TestRoutedIngestNoHangOnStuckOwner: the forward of a routed edge
// ingest runs under its type's send lock. An owner that never answers
// must cost the ingest at most the flush deadline, and a later send of
// the type must go through, delivering the forwarded item that stayed
// queued.
func TestRoutedIngestNoHangOnStuckOwner(t *testing.T) {
	owner := &silentOwner{}
	n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: owner,
		Codec: aggregate.CodecNone, FlushInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n.SetRoute("traffic", "fog1/d01-s02")
	done := make(chan error, 2)
	go func() {
		done <- n.Ingest(typedBatch("traffic", t0, 1, 2))
		done <- n.Flush(context.Background())
	}()
	for _, step := range []string{"routed ingest", "later flush"} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s hung on an owner that never answers", step)
		}
	}
	if owner.delivered != 1 || n.PendingBatches() != 0 {
		t.Errorf("parent got %d sends, %d batches still pending; want the forwarded item delivered once", owner.delivered, n.PendingBatches())
	}
}
