package fognode

// Alert-plane tests: standing subscriptions firing incrementally from
// ingest and flush, exactly-once delivery through retries and lost
// acks, crash recovery of subscriptions + queued pushes + emitted
// marks, and migration carrying live window state.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cq"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// alertSink is a scriptable upstream endpoint with the real cloud-side
// dedup: push-level replay filtering plus instance-keyed storage.
type alertSink struct {
	mu        sync.Mutex
	mode      string // "up", "down", "acklost"
	filter    *protocol.ReplayFilter
	instances map[string]protocol.Alert
	pushes    int // wire-level alert pushes that reached the handler
	dupPushes int
	nodes     map[string]transport.Handler
}

func newAlertSink() *alertSink {
	return &alertSink{
		mode:      "up",
		filter:    protocol.NewReplayFilter(0),
		instances: make(map[string]protocol.Alert),
		nodes:     make(map[string]transport.Handler),
	}
}

func (s *alertSink) set(mode string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = mode
}

func (s *alertSink) attach(id string, h transport.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes[id] = h
}

func (s *alertSink) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	s.mu.Lock()
	h := s.nodes[msg.To]
	s.mu.Unlock()
	if h != nil {
		return h.Handle(ctx, msg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == "down" {
		return nil, errors.New("parent down")
	}
	switch msg.Kind {
	case transport.KindBatch:
		b, _, seq, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
		if err != nil {
			return nil, err
		}
		s.filter.Mark(b.NodeID, seq)
	case transport.KindAlertPush:
		push, err := protocol.DecodeAlertPush(msg.Payload)
		if err != nil {
			return nil, err
		}
		s.pushes++
		if s.filter.Seen(push.Origin, push.Seq) {
			s.dupPushes++
			return []byte("ok"), nil
		}
		s.filter.Mark(push.Origin, push.Seq)
		for i := range push.Alerts {
			s.instances[push.Alerts[i].Key()] = push.Alerts[i]
		}
		// "acklost" loses only alert acks: the push is processed but
		// the sender must retry it, exercising push-level dedup.
		if s.mode == "acklost" {
			return nil, errors.New("ack lost after processing")
		}
	default:
		return nil, fmt.Errorf("alertSink: unexpected kind %q", msg.Kind)
	}
	return []byte("ok"), nil
}

func (s *alertSink) stored() []protocol.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]protocol.Alert, 0, len(s.instances))
	for _, a := range s.instances {
		out = append(out, a)
	}
	protocol.SortAlerts(out)
	return out
}

func newAlertNode(t testing.TB, sink *alertSink, clock sim.Clock, dir string) *Node {
	t.Helper()
	cfg := Config{
		Spec:      fog1Spec(),
		Clock:     clock,
		Transport: sink,
		Codec:     aggregate.CodecNone,
	}
	if dir != "" {
		cfg.Durability = &wal.Config{Dir: dir, SnapshotEvery: -1}
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func windowSub(id, typ string, w time.Duration) cq.Subscription {
	return cq.Subscription{ID: id, TypeName: typ, Kind: cq.KindWindow, Window: w}
}

func TestWindowAlertFiresAndDelivers(t *testing.T) {
	sink := newAlertSink()
	clock := sim.NewVirtualClock(t0)
	n := newAlertNode(t, sink, clock, "")
	ctx := context.Background()

	if err := n.Subscribe(windowSub("w1", "traffic", time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(typedBatch("traffic", t0, 10, 20)); err != nil {
		t.Fatal(err)
	}
	// The window has not closed yet: flushing delivers the batch but no
	// alert.
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := sink.stored(); len(got) != 0 {
		t.Fatalf("alert fired before the window closed: %+v", got)
	}

	clock.Advance(2 * time.Minute)
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := sink.stored()
	if len(got) != 1 {
		t.Fatalf("stored %d alert instances, want 1: %+v", len(got), got)
	}
	a := got[0]
	if a.SubID != "w1" || a.FiredBy != n.ID() || a.Kind != protocol.AlertKindWindow {
		t.Fatalf("alert = %+v", a)
	}
	if a.Summary.Count != 2 || a.Summary.Sum != 30 {
		t.Fatalf("summary = %+v", a.Summary)
	}
	if n.AlertsFired() != 1 || n.alertPushesOut.Value() != 1 {
		t.Fatalf("counters fired=%d pushes=%d, want 1/1", n.AlertsFired(), n.alertPushesOut.Value())
	}
}

func TestThresholdAlertFiresFromIngest(t *testing.T) {
	sink := newAlertSink()
	clock := sim.NewVirtualClock(t0)
	n := newAlertNode(t, sink, clock, "")
	ctx := context.Background()

	err := n.Subscribe(cq.Subscription{
		ID: "hot", TypeName: "traffic", Kind: cq.KindThreshold, Window: time.Minute,
		Predicate: cq.PredAbove, Threshold: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The crossing seals at ingest time, before any flush.
	if err := n.Ingest(typedBatch("traffic", t0, 10, 60)); err != nil {
		t.Fatal(err)
	}
	if n.AlertsFired() != 1 {
		t.Fatalf("fired %d alerts at ingest, want 1", n.AlertsFired())
	}
	// A second crossing in the same window does not refire.
	if err := n.Ingest(typedBatch("traffic", t0.Add(time.Second), 70)); err != nil {
		t.Fatal(err)
	}
	if n.AlertsFired() != 1 {
		t.Fatalf("same-window crossing refired: %d", n.AlertsFired())
	}
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := sink.stored()
	if len(got) != 1 || got[0].Kind != protocol.AlertKindThreshold || got[0].Value != 60 {
		t.Fatalf("stored = %+v", got)
	}
}

func TestAlertDeliveryExactlyOnceThroughRetries(t *testing.T) {
	sink := newAlertSink()
	clock := sim.NewVirtualClock(t0)
	n := newAlertNode(t, sink, clock, "")
	ctx := context.Background()

	if err := n.Subscribe(windowSub("w1", "traffic", time.Minute)); err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2))
	clock.Advance(2 * time.Minute)

	// Parent down: the sealed push parks on the retry queue.
	sink.set("down")
	_ = n.Flush(ctx)
	if n.AlertsFired() != 1 {
		t.Fatalf("fired %d, want 1", n.AlertsFired())
	}
	// Ack lost after processing: the sink stored the push but the node
	// must retry it.
	sink.set("acklost")
	_ = n.Flush(ctx)
	// Healthy: the retry arrives and dedups at the push level.
	sink.set("up")
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	pushes, dups, instances := sink.pushes, sink.dupPushes, len(sink.instances)
	sink.mu.Unlock()
	if instances != 1 {
		t.Fatalf("stored %d instances, want exactly 1", instances)
	}
	if pushes < 2 || dups != pushes-1 {
		t.Fatalf("pushes=%d dups=%d: retry not deduped at push level", pushes, dups)
	}
	// Nothing left queued.
	if n.PendingBatches() != 0 {
		t.Fatalf("%d delivery units still pending", n.PendingBatches())
	}
}

func TestAlertCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	sink := newAlertSink()
	clock := sim.NewVirtualClock(t0)
	ctx := context.Background()

	n := newAlertNode(t, sink, clock, dir)
	if err := n.Subscribe(windowSub("w1", "traffic", time.Minute)); err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0, 10, 20))

	// Crash before any flush: no Close, rebuild from the journal.
	n.Discard()
	clock.Advance(2 * time.Minute)
	n2 := newAlertNode(t, sink, clock, dir)
	if subs := n2.Subscriptions(); len(subs) != 1 || subs[0].ID != "w1" {
		t.Fatalf("subscription lost in crash: %+v", subs)
	}
	if err := n2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := sink.stored()
	if len(got) != 1 || got[0].Summary.Count != 2 || got[0].Summary.Sum != 30 {
		t.Fatalf("recovered window = %+v", got)
	}

	// Crash again after delivery: the journaled seal + commit must stop
	// the window from refiring in the third life.
	n2.Discard()
	n3 := newAlertNode(t, sink, clock, dir)
	if err := n3.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	instances := len(sink.instances)
	sink.mu.Unlock()
	if instances != 1 {
		t.Fatalf("delivered window refired after reboot: %d instances", instances)
	}
	_ = n3.Close(ctx)
}

func TestAlertQueueSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	sink := newAlertSink()
	clock := sim.NewVirtualClock(t0)
	ctx := context.Background()

	n := newAlertNode(t, sink, clock, dir)
	if err := n.Subscribe(windowSub("w1", "traffic", time.Minute)); err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0, 10, 20))
	clock.Advance(2 * time.Minute)

	// Seal the push against a dead parent, then crash with it queued.
	sink.set("down")
	_ = n.Flush(ctx)
	if n.AlertsFired() != 1 {
		t.Fatalf("fired %d, want 1", n.AlertsFired())
	}
	n.Discard()

	sink.set("up")
	n2 := newAlertNode(t, sink, clock, dir)
	if err := n2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := sink.stored()
	if len(got) != 1 || got[0].Summary.Count != 2 {
		t.Fatalf("queued push lost in crash: %+v", got)
	}
	// The recovered node must not have fired a second instance for the
	// same window on top of the recovered queue.
	sink.mu.Lock()
	instances := len(sink.instances)
	sink.mu.Unlock()
	if instances != 1 {
		t.Fatalf("stored %d instances, want 1", instances)
	}
	_ = n2.Close(ctx)
}

func TestMigrationCarriesSubscriptionAndWindowState(t *testing.T) {
	sink := newAlertSink()
	clock := sim.NewVirtualClock(t0)
	ctx := context.Background()

	src := newAlertNode(t, sink, clock, "")
	dstSpec := fog1Spec()
	dstSpec.ID = "fog1/d01-s02"
	dst, err := New(Config{
		Spec: dstSpec, Clock: clock, Transport: sink, Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.attach(dst.ID(), dst)

	if err := src.Subscribe(windowSub("w1", "traffic", time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Half the window accumulates on the source...
	_ = src.Ingest(typedBatch("traffic", t0, 10))

	if err := src.MigrateOut(ctx, "traffic", dst.ID()); err != nil {
		t.Fatal(err)
	}
	if subs := src.Subscriptions(); len(subs) != 0 {
		t.Fatalf("source still holds subscriptions after handoff: %+v", subs)
	}
	if subs := dst.Subscriptions(); len(subs) != 1 || subs[0].ID != "w1" {
		t.Fatalf("target did not absorb the subscription: %+v", subs)
	}

	// ...and the other half on the target, post-migration.
	_ = dst.Ingest(typedBatch("traffic", t0.Add(time.Second), 20))
	clock.Advance(2 * time.Minute)
	if err := dst.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := sink.stored()
	if len(got) != 1 {
		t.Fatalf("stored %d instances, want 1: %+v", len(got), got)
	}
	if got[0].FiredBy != dst.ID() {
		t.Fatalf("alert fired by %q, want the migration target", got[0].FiredBy)
	}
	// The merged window covers readings from both lives.
	if got[0].Summary.Count != 2 || got[0].Summary.Sum != 30 {
		t.Fatalf("migrated window state lost readings: %+v", got[0].Summary)
	}
	// The source ingesting the type again must not fire: the
	// subscription moved with the shard.
	_ = src.Ingest(typedBatch("traffic", t0.Add(2*time.Second), 99))
	if src.AlertsFired() != 0 {
		t.Fatalf("source fired %d alerts after handoff", src.AlertsFired())
	}
}

func TestControlSubscribeRoundTrip(t *testing.T) {
	n := newAlertNode(t, newAlertSink(), sim.NewVirtualClock(t0), "")
	ctx := context.Background()

	subDoc, err := protocol.EncodeJSON(windowSub("w1", "traffic", time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpSubscribe, Sub: subDoc})
	reply, err := n.Handle(ctx, transport.Message{Kind: transport.KindControl, To: n.ID(), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "subscribed" {
		t.Fatalf("subscribe reply = %s", reply)
	}

	payload, _ = protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpSubscriptions})
	reply, err = n.Handle(ctx, transport.Message{Kind: transport.KindControl, To: n.ID(), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	var resp protocol.SubscriptionsResponse
	if err := protocol.DecodeJSON(reply, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Subs) != 1 {
		t.Fatalf("listed %d subscriptions, want 1", len(resp.Subs))
	}
	var sub cq.Subscription
	if err := protocol.DecodeJSON(resp.Subs[0], &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID != "w1" || sub.TypeName != "traffic" {
		t.Fatalf("listed subscription = %+v", sub)
	}

	payload, _ = protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpSubscribe, Sub: subDoc, Remove: true})
	reply, err = n.Handle(ctx, transport.Message{Kind: transport.KindControl, To: n.ID(), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "unsubscribed" {
		t.Fatalf("unsubscribe reply = %s", reply)
	}
	if len(n.Subscriptions()) != 0 {
		t.Fatalf("subscription still present after unsubscribe")
	}
}
