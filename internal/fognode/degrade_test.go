package fognode

import (
	"context"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sched"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

// TestDegradeBoundFoldsTrimmedReadings: with DegradeToSummary on, the
// MaxPendingReadings trim folds the overflow into window summaries
// (counts preserved, nothing shed) and the next flush pushes them
// upward beside the surviving raw batch.
func TestDegradeBoundFoldsTrimmedReadings(t *testing.T) {
	net := transport.NewSimNetwork()
	var mu sync.Mutex
	var batches []*model.Batch
	var pushes []protocol.SummaryPush
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		switch msg.Kind {
		case transport.KindBatch:
			b, _, _, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
			if err != nil {
				return nil, err
			}
			batches = append(batches, b)
		case transport.KindSummaryPush:
			var p protocol.SummaryPush
			if err := protocol.DecodeJSON(msg.Payload, &p); err != nil {
				return nil, err
			}
			pushes = append(pushes, p)
		}
		return []byte("ok"), nil
	}))
	n, err := New(Config{
		Spec: fog1Spec(), City: "barcelona", Clock: sim.NewVirtualClock(t0),
		Transport: net, Codec: aggregate.CodecNone,
		MaxPendingReadings: 4, DegradeToSummary: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	vals := make(map[string]float64, 8)
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		vals[id] = 20
	}
	if err := n.Ingest(batchOf(vals, t0)); err != nil {
		t.Fatal(err)
	}
	if got := n.DegradedReadings(); got != 4 {
		t.Fatalf("DegradedReadings = %d, want 4 (bound 4, ingested 8)", got)
	}
	if got := n.ShedReadings(); got != 0 {
		t.Fatalf("ShedReadings = %d, want 0: degrade must replace raw shed", got)
	}

	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0].Readings) != 4 {
		t.Fatalf("parent saw %d batches (first %d readings), want 1 batch of 4", len(batches), len(batches[0].Readings))
	}
	if len(pushes) != 1 {
		t.Fatalf("parent saw %d summary pushes, want 1", len(pushes))
	}
	p := pushes[0]
	if p.Origin != "fog1/d01-s01" || p.TypeName != "temperature" {
		t.Errorf("push origin/type = %s/%s", p.Origin, p.TypeName)
	}
	if got := p.Readings(); got != 4 {
		t.Errorf("push carries %d readings, want 4: degraded counts must be conserved", got)
	}
	if len(p.Windows) != 1 || p.Windows[0].StartUnix != t0.UnixNano() {
		t.Errorf("windows = %+v, want one starting at t0", p.Windows)
	}
	if got := n.SummariesEmitted(); got != 1 {
		t.Errorf("SummariesEmitted = %d, want 1", got)
	}
	if n.PendingBatches() != 0 {
		t.Errorf("pending after flush = %d, want 0", n.PendingBatches())
	}
}

// TestSummaryPushMergesUpward: a parent receiving a child's degraded
// windows dedups retries by (origin, seq), folds them into its own
// degrade buffer, and re-emits them upward under its own identity.
func TestSummaryPushMergesUpward(t *testing.T) {
	net := transport.NewSimNetwork()
	var mu sync.Mutex
	var pushes []protocol.SummaryPush
	net.Register("cloud", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		if msg.Kind == transport.KindSummaryPush {
			var p protocol.SummaryPush
			if err := protocol.DecodeJSON(msg.Payload, &p); err != nil {
				return nil, err
			}
			mu.Lock()
			pushes = append(pushes, p)
			mu.Unlock()
		}
		return []byte("ok"), nil
	}))
	f2, err := New(Config{
		Spec:  topology.NodeSpec{ID: "fog2/d01", Layer: topology.LayerFog2, Parent: "cloud", Name: "Ciutat Vella"},
		City:  "barcelona",
		Clock: sim.NewVirtualClock(t0), Transport: net, Codec: aggregate.CodecNone,
		DegradeToSummary: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	push := protocol.SummaryPush{
		Origin: "fog1/d01-s01", Seq: 7, TypeName: "temperature", Category: "energy",
		Windows: []protocol.SummaryWindow{{
			StartUnix: t0.UnixNano(), EndUnix: t0.Add(time.Minute).UnixNano(),
			Summary: aggregate.Summary{Count: 4, Sum: 80, Min: 18, Max: 22},
		}},
	}
	payload, err := protocol.EncodeJSON(push)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{From: "fog1/d01-s01", To: "fog2/d01", Kind: transport.KindSummaryPush, Payload: payload}
	if _, err := f2.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	if got := f2.DegradedInbound(); got != 4 {
		t.Fatalf("DegradedInbound = %d, want 4", got)
	}
	// A retry of the same push (ack lost) must dedup, not double-count.
	if _, err := f2.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	if got := f2.DegradedInbound(); got != 4 {
		t.Fatalf("DegradedInbound after retry = %d, want 4 (deduped)", got)
	}

	if err := f2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pushes) != 1 {
		t.Fatalf("cloud saw %d pushes, want 1", len(pushes))
	}
	if pushes[0].Origin != "fog2/d01" {
		t.Errorf("re-emitted origin = %s, want fog2/d01 (combine-and-forward)", pushes[0].Origin)
	}
	if got := pushes[0].Readings(); got != 4 {
		t.Errorf("re-emitted readings = %d, want 4", got)
	}
}

// TestDegradeBufWindowCap: at the window cap new readings fold into
// the nearest existing window — coarser, never dropped — and pre-epoch
// instants floor onto window boundaries too.
func TestDegradeBufWindowCap(t *testing.T) {
	buf := &degradeBuf{category: model.CategoryEnergy, windows: make(map[int64]aggregate.Summary)}
	r := func(at time.Time) model.Reading {
		return model.Reading{SensorID: "a", TypeName: "temperature", Time: at, Value: 20}
	}
	buf.fold(r(t0), 2)
	buf.fold(r(t0.Add(time.Minute)), 2)
	buf.fold(r(t0.Add(5*time.Minute)), 2) // over the cap: nearest window absorbs it
	buf.fold(r(t0.Add(30*time.Second)), 2)
	if len(buf.windows) != 2 {
		t.Fatalf("windows = %d, want cap 2", len(buf.windows))
	}
	var total int64
	for _, s := range buf.windows {
		total += s.Count
	}
	if total != 4 {
		t.Fatalf("folded count = %d, want 4: the cap must coarsen, not drop", total)
	}

	pre := &degradeBuf{category: model.CategoryEnergy, windows: make(map[int64]aggregate.Summary)}
	pre.fold(r(time.Unix(-90, 0)), 0)
	if _, ok := pre.windows[-120*int64(time.Second)]; !ok {
		t.Fatalf("pre-epoch window keys = %v, want floor at -120s", pre.windows)
	}
}

// TestAdaptiveBatchConvergesUnderSteppedRTT drives the flush
// controller with a stepped RTT profile: a healthy link grows the
// batch to its ceiling and accelerates the cadence; stepping the RTT
// past twice the target decays both; recovering converges back.
func TestAdaptiveBatchConvergesUnderSteppedRTT(t *testing.T) {
	cfg := adaptiveBounds{
		minBatch: 64, maxBatch: 1024,
		minInterval: time.Second, maxInterval: 8 * time.Second,
		targetRTT: 50 * time.Millisecond, alpha: 0.5,
	}
	c := newFlushController(cfg, nil, "")
	if got := c.batchSize(); got != (64+1024)/2 {
		t.Fatalf("initial batch = %d, want midway %d", got, (64+1024)/2)
	}

	step := func(rtt time.Duration, rounds int) {
		for i := 0; i < rounds; i++ {
			c.observeRTT(rtt)
			c.onFlushDone(0)
		}
	}
	step(10*time.Millisecond, 20)
	if got := c.batchSize(); got != 1024 {
		t.Fatalf("healthy-RTT batch = %d, want ceiling 1024", got)
	}
	if got := c.interval(); got != time.Second {
		t.Fatalf("healthy-RTT interval = %v, want floor 1s", got)
	}

	step(500*time.Millisecond, 30)
	if got := c.batchSize(); got != 64 {
		t.Fatalf("high-RTT batch = %d, want floor 64", got)
	}
	if got := c.interval(); got != 8*time.Second {
		t.Fatalf("high-RTT interval = %v, want ceiling 8s", got)
	}

	step(10*time.Millisecond, 40)
	if got := c.batchSize(); got != 1024 {
		t.Fatalf("recovered batch = %d, want ceiling 1024 again", got)
	}
}

// TestAdaptiveBackpressureHalvesBatch: a deferred send is an immediate
// multiplicative decrease, and the round's onFlushDone must not also
// grow the batch it just halved.
func TestAdaptiveBackpressureHalvesBatch(t *testing.T) {
	cfg := adaptiveBounds{
		minBatch: 64, maxBatch: 1024,
		minInterval: time.Second, maxInterval: 8 * time.Second,
		targetRTT: 50 * time.Millisecond, alpha: 0.5,
	}
	c := newFlushController(cfg, nil, "")
	c.observeRTT(10 * time.Millisecond)
	c.onFlushDone(0) // 544 -> 680, interval 8s -> 6s
	before := c.batchSize()

	c.onBackpressure()
	if got := c.batchSize(); got != before/2 {
		t.Fatalf("batch after backpressure = %d, want %d", got, before/2)
	}
	if got := c.interval(); got != 8*time.Second {
		t.Fatalf("interval after backpressure = %v, want doubled+clamped 8s", got)
	}
	c.onFlushDone(0) // same round: the decrease already happened
	if got := c.batchSize(); got != before/2 {
		t.Fatalf("batch after post-backpressure flush = %d, want unchanged %d", got, before/2)
	}
}

// TestHandleAdmissionOverload: with the node's only handler slot held
// and the ingest admission queue full, the next ingest is rejected
// fast with the typed overload error senders treat as backpressure.
func TestHandleAdmissionOverload(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	net := transport.NewSimNetwork()
	net.Register("fog2/d01", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		close(entered)
		<-gate
		return []byte("ok"), nil
	}))
	reg := metrics.NewRegistry()
	n, err := New(Config{
		Spec: fog1Spec(), City: "barcelona", Clock: sim.NewVirtualClock(t0),
		Transport: net, Codec: aggregate.CodecNone, Registry: reg,
		Scheduler: &sched.Options{
			Concurrency: 1,
			Classes: map[string]sched.ClassOptions{
				"ingest": {Weight: 1, QueueLimit: 1},
				"relay":  {Weight: 1},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single handler slot with a relay parked on the gate.
	relayDone := make(chan error, 1)
	go func() {
		_, err := n.Handle(context.Background(), transport.Message{
			From: "fog1/d01-s02", To: "fog1/d01-s01", Kind: transport.KindRelay, Payload: []byte("x"),
		})
		relayDone <- err
	}()
	<-entered

	ingest := func(origin string) error {
		b := batchOf(map[string]float64{"a": 20}, t0)
		b.NodeID = origin
		payload, err := protocol.EncodeBatchPayload(b, aggregate.CodecNone)
		if err != nil {
			t.Error(err)
			return err
		}
		_, err = n.Handle(context.Background(), transport.Message{
			From: origin, To: "fog1/d01-s01", Kind: transport.KindBatch, Payload: payload,
		})
		return err
	}
	// First ingest waits in the class queue (limit 1); the second must
	// be turned away immediately.
	results := make(chan error, 2)
	go func() { results <- ingest("edge-1") }()
	go func() { results <- ingest("edge-2") }()

	var rejected error
	select {
	case rejected = <-results:
	case <-time.After(5 * time.Second):
		t.Fatal("no fast rejection: overflow admission did not return")
	}
	if !transport.IsOverload(rejected) {
		t.Fatalf("overflow ingest error = %v, want typed overload", rejected)
	}

	close(gate)
	if err := <-relayDone; err != nil {
		t.Fatalf("relay = %v", err)
	}
	select {
	case err := <-results:
		if err != nil {
			t.Fatalf("queued ingest after release = %v, want success", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued ingest never dispatched after the slot freed")
	}
	if got := reg.Counter("fog1/d01-s01.sched.ingest.rejected").Value(); got != 1 {
		t.Errorf("sched.ingest.rejected = %d, want 1", got)
	}
}
