package fognode

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func fog1Spec() topology.NodeSpec {
	return topology.NodeSpec{
		ID: "fog1/d01-s01", Layer: topology.LayerFog1, Parent: "fog2/d01", Name: "Ciutat Vella s01",
	}
}

func batchOf(vals map[string]float64, at time.Time) *model.Batch {
	b := &model.Batch{NodeID: "edge", TypeName: "temperature", Category: model.CategoryEnergy, Collected: at}
	// Deterministic ordering for tests.
	for _, id := range sortedKeys(vals) {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: id, TypeName: "temperature", Category: model.CategoryEnergy,
			Time: at, Value: vals[id], Unit: "C",
		})
	}
	return b
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func newTestNode(t *testing.T, net *transport.SimNetwork, dedup bool) *Node {
	t.Helper()
	clock := sim.NewVirtualClock(t0)
	n, err := New(Config{
		Spec:      fog1Spec(),
		City:      "barcelona",
		Clock:     clock,
		Transport: net,
		Codec:     aggregate.CodecZip,
		Dedup:     dedup,
		Quality:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestIngestStoresAndQueues(t *testing.T) {
	n := newTestNode(t, nil, true)
	if err := n.Ingest(batchOf(map[string]float64{"a": 20, "b": 21}, t0)); err != nil {
		t.Fatal(err)
	}
	if r, ok := n.Latest("a"); !ok || r.Value != 20 {
		t.Errorf("Latest(a) = %+v ok=%v", r, ok)
	}
	if got := n.Query("temperature", t0, t0.Add(time.Hour)); len(got) != 2 {
		t.Errorf("Query = %d readings, want 2", len(got))
	}
	if n.PendingBatches() != 1 {
		t.Errorf("PendingBatches = %d, want 1", n.PendingBatches())
	}
	st := n.Status()
	if st.NodeID != "fog1/d01-s01" || st.Layer != "fog1" || st.StoredReadings != 2 || st.IngestedBatches != 1 {
		t.Errorf("Status = %+v", st)
	}
}

func TestIngestDedupEliminatesRepeats(t *testing.T) {
	n := newTestNode(t, nil, true)
	_ = n.Ingest(batchOf(map[string]float64{"a": 20, "b": 21}, t0))
	_ = n.Ingest(batchOf(map[string]float64{"a": 20, "b": 22}, t0.Add(time.Minute)))
	// a repeated: only b's new value is stored the second time.
	if got := n.Query("temperature", t0, t0.Add(time.Hour)); len(got) != 3 {
		t.Errorf("stored = %d readings, want 3", len(got))
	}
	if share := n.DedupEliminatedShare(); share != 0.25 {
		t.Errorf("eliminated share = %v, want 0.25", share)
	}
}

// TestIngestQualityRejectsGarbage also pins the acquisition order:
// dedup sees every reading (the garbage one included) before quality
// drops the rejected one, the batch score reaches the description
// tags, and the rejection is counted.
func TestIngestQualityRejectsGarbage(t *testing.T) {
	n := newTestNode(t, nil, true)
	b := batchOf(map[string]float64{"a": 20, "b": 9999}, t0) // 9999 out of range
	if err := n.Ingest(b); err != nil {
		t.Fatal(err)
	}
	if got := n.Query("temperature", t0, t0.Add(time.Hour)); len(got) != 1 {
		t.Errorf("stored = %d, want 1 (rejected reading dropped)", len(got))
	}
	if in, kept := n.DedupStats(); in != 2 || kept != 2 {
		t.Errorf("dedup saw %d readings and kept %d, want 2 and 2: dedup runs before quality", in, kept)
	}
	if got := n.rejectedReads.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	tags, ok := n.Tags("temperature")
	if !ok {
		t.Fatal("missing tags")
	}
	if tags.QualityScore != 0.5 {
		t.Errorf("quality score = %v, want 0.5 (one of two rejected)", tags.QualityScore)
	}
	if tags.City != "barcelona" || tags.Section != "Ciutat Vella s01" {
		t.Errorf("tags = %+v", tags)
	}
}

func TestIngestInvalidBatch(t *testing.T) {
	n := newTestNode(t, nil, false)
	if err := n.Ingest(&model.Batch{}); err == nil {
		t.Error("expected error")
	}
}

func TestFlushSendsToParent(t *testing.T) {
	net := transport.NewSimNetwork()
	var mu sync.Mutex
	var received []*model.Batch
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		b, codec, err := protocol.DecodeBatchPayload(msg.Payload)
		if err != nil {
			return nil, err
		}
		if codec != aggregate.CodecZip {
			t.Errorf("codec = %v, want zip", codec)
		}
		mu.Lock()
		received = append(received, b)
		mu.Unlock()
		return []byte("ok"), nil
	}))
	n := newTestNode(t, net, true)
	_ = n.Ingest(batchOf(map[string]float64{"a": 20, "b": 21}, t0))
	if err := n.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 {
		t.Fatalf("parent received %d batches, want 1", len(received))
	}
	if received[0].NodeID != "fog1/d01-s01" {
		t.Errorf("upward batch NodeID = %q, want the fog node's", received[0].NodeID)
	}
	if len(received[0].Readings) != 2 {
		t.Errorf("upward readings = %d, want 2", len(received[0].Readings))
	}
	if n.PendingBatches() != 0 {
		t.Errorf("pending after flush = %d", n.PendingBatches())
	}
}

func TestFlushFailureRequeues(t *testing.T) {
	net := transport.NewSimNetwork()
	fail := true
	var got []*model.Batch
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		if fail {
			return nil, errors.New("fog2 unavailable")
		}
		b, _, err := protocol.DecodeBatchPayload(msg.Payload)
		if err != nil {
			return nil, err
		}
		got = append(got, b)
		return []byte("ok"), nil
	}))
	n := newTestNode(t, net, false)
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("expected flush error")
	}
	if n.PendingBatches() != 1 {
		t.Fatalf("failed batch not requeued")
	}
	// New data arrives, then the parent recovers. The failed batch is
	// frozen on the retry queue (its delivery sequence must stay
	// stable so the receiver can dedupe a replay), so the recovery
	// flush delivers two batches: the failed one first, then the
	// fresh readings.
	_ = n.Ingest(batchOf(map[string]float64{"a": 21}, t0.Add(time.Minute)))
	fail = false
	if err := n.Flush(context.Background()); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if len(got) != 2 || len(got[0].Readings) != 1 || len(got[1].Readings) != 1 {
		t.Fatalf("recovered batches = %+v", got)
	}
	if !got[0].Readings[0].Time.Equal(t0) || !got[1].Readings[0].Time.Equal(t0.Add(time.Minute)) {
		t.Error("requeued readings must precede newer ones")
	}
	if n.PendingBatches() != 0 {
		t.Errorf("pending after recovery = %d", n.PendingBatches())
	}
}

func TestFlushWithoutParent(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	n, err := New(Config{
		Spec:  topology.NodeSpec{ID: "cloudish", Layer: topology.LayerCloud},
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing pending: no error.
	if err := n.Flush(context.Background()); err != nil {
		t.Errorf("empty flush = %v", err)
	}
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))
	if err := n.Flush(context.Background()); !errors.Is(err, ErrNoParent) {
		t.Errorf("flush = %v, want ErrNoParent", err)
	}
}

func TestFlushAppliesRetention(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	net := transport.NewSimNetwork()
	net.Register("fog2/d01", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		return []byte("ok"), nil
	}))
	n, err := New(Config{
		Spec: fog1Spec(), Clock: clock, Transport: net,
		Retention: time.Hour, Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))
	_ = n.Flush(context.Background())
	clock.Advance(3 * time.Hour)
	_ = n.Flush(context.Background())
	if got := n.Query("temperature", t0.Add(-time.Hour), t0.Add(10*time.Hour)); len(got) != 0 {
		t.Errorf("temporal store kept %d readings past retention", len(got))
	}
	// Real-time latest still available.
	if _, ok := n.Latest("a"); !ok {
		t.Error("latest must survive retention")
	}
}

func TestHandleBatchIngestsAtLayer2(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	f2, err := New(Config{
		Spec:  topology.NodeSpec{ID: "fog2/d01", Layer: topology.LayerFog2, Parent: "cloud", Name: "Ciutat Vella"},
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	child := batchOf(map[string]float64{"a": 20}, t0)
	child.NodeID = "fog1/d01-s01"
	payload, err := protocol.EncodeBatchPayload(child, aggregate.CodecGzip)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := f2.Handle(context.Background(), transport.Message{
		From: "fog1/d01-s01", To: "fog2/d01", Kind: transport.KindBatch, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ok" {
		t.Errorf("reply = %q", reply)
	}
	if got := f2.Query("temperature", t0, t0.Add(time.Hour)); len(got) != 1 {
		t.Errorf("layer-2 store = %d readings, want 1", len(got))
	}
	if f2.PendingBatches() != 1 {
		t.Error("layer 2 must queue combined data for its own upward flush")
	}
}

func TestHandleQueryLatestAndRange(t *testing.T) {
	n := newTestNode(t, nil, false)
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))

	// Latest.
	req, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "a"})
	reply, err := n.Handle(context.Background(), transport.Message{Kind: transport.KindQuery, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || len(resp.Readings) != 1 || resp.Readings[0].Value != 20 {
		t.Errorf("latest resp = %+v", resp)
	}

	// Range.
	req, _ = protocol.EncodeJSON(protocol.QueryRequest{
		TypeName: "temperature", FromUnix: t0.Add(-time.Minute).UnixNano(), ToUnix: t0.Add(time.Minute).UnixNano(),
	})
	reply, err = n.Handle(context.Background(), transport.Message{Kind: transport.KindQuery, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || len(resp.Readings) != 1 {
		t.Errorf("range resp = %+v", resp)
	}

	// Miss.
	req, _ = protocol.EncodeJSON(protocol.QueryRequest{SensorID: "ghost"})
	reply, _ = n.Handle(context.Background(), transport.Message{Kind: transport.KindQuery, Payload: req})
	resp, _ = protocol.DecodeQueryPage(reply)
	if resp.Found {
		t.Error("ghost sensor should not be found")
	}
}

func TestHandleErrors(t *testing.T) {
	n := newTestNode(t, nil, false)
	cases := []transport.Message{
		{Kind: transport.KindBatch, Payload: []byte("junk")},
		{Kind: transport.KindQuery, Payload: []byte("junk")},
		{Kind: transport.KindQuery, Payload: []byte(`{}`)},
		{Kind: transport.KindControl, Payload: []byte("junk")},
		{Kind: transport.KindControl, Payload: []byte(`{"op":"dance"}`)},
		{Kind: "nope"},
	}
	for i, msg := range cases {
		if _, err := n.Handle(context.Background(), msg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestHandleControlFlushAndStatus(t *testing.T) {
	net := transport.NewSimNetwork()
	net.Register("fog2/d01", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		return []byte("ok"), nil
	}))
	n := newTestNode(t, net, false)
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))

	req, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	reply, err := n.Handle(context.Background(), transport.Message{Kind: transport.KindControl, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "flushed" || n.PendingBatches() != 0 {
		t.Errorf("flush control failed: %q pending=%d", reply, n.PendingBatches())
	}

	req, _ = protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	reply, err = n.Handle(context.Background(), transport.Message{Kind: transport.KindControl, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	var st protocol.StatusResponse
	if err := protocol.DecodeJSON(reply, &st); err != nil {
		t.Fatal(err)
	}
	if st.NodeID != n.ID() || st.StoredReadings != 1 {
		t.Errorf("status = %+v", st)
	}
}

func TestBackgroundFlusher(t *testing.T) {
	net := transport.NewSimNetwork()
	var count int64
	var mu sync.Mutex
	net.Register("fog2/d01", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return []byte("ok"), nil
	}))
	n, err := New(Config{
		Spec: fog1Spec(), Clock: sim.WallClock{}, Transport: net,
		FlushInterval: 10 * time.Millisecond, Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Start() // idempotent
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, time.Now()))
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background flusher never flushed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := n.Close(context.Background()); err != nil {
		t.Errorf("Close: %v", err)
	}
	// Close again is safe.
	if err := n.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Start after Close is a no-op.
	n.Start()
}

func TestCloseFlushesPendingData(t *testing.T) {
	net := transport.NewSimNetwork()
	var got int
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		got++
		return []byte("ok"), nil
	}))
	n := newTestNode(t, net, false)
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))
	if err := n.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got != 1 {
		t.Errorf("Close flushed %d batches, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := New(Config{Spec: fog1Spec(), Codec: aggregate.Codec(42)}); err == nil {
		t.Error("invalid codec must fail")
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	n := newTestNode(t, nil, true)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				at := t0.Add(time.Duration(i*50+j) * time.Second)
				_ = n.Ingest(batchOf(map[string]float64{"s": float64(j)}, at))
				n.Latest("s")
				n.Query("temperature", t0, at)
			}
		}(i)
	}
	wg.Wait()
	if st := n.Status(); st.IngestedBatches != 400 {
		t.Errorf("ingested = %d, want 400", st.IngestedBatches)
	}
}

func TestHandleErrorMessageContainsNodeID(t *testing.T) {
	n := newTestNode(t, nil, false)
	_, err := n.Handle(context.Background(), transport.Message{Kind: "bogus"})
	if err == nil || !strings.Contains(err.Error(), n.ID()) {
		t.Errorf("err = %v, want node id in message", err)
	}
}

func TestHandleSummary(t *testing.T) {
	n := newTestNode(t, nil, false)
	_ = n.Ingest(batchOf(map[string]float64{"a": 10, "b": 30}, t0))
	req, _ := protocol.EncodeJSON(protocol.SummaryRequest{
		TypeName: "temperature",
		FromUnix: t0.Add(-time.Minute).UnixNano(),
		ToUnix:   t0.Add(time.Minute).UnixNano(),
	})
	reply, err := n.Handle(context.Background(), transport.Message{
		Kind: transport.KindSummary, Payload: req,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp protocol.SummaryResponse
	if err := protocol.DecodeJSON(reply, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Count != 2 || resp.Summary.Avg() != 20 {
		t.Errorf("summary = %+v", resp.Summary)
	}
	// Invalid summary payloads are rejected.
	for _, payload := range [][]byte{[]byte("junk"), []byte(`{}`)} {
		if _, err := n.Handle(context.Background(), transport.Message{
			Kind: transport.KindSummary, Payload: payload,
		}); err == nil {
			t.Error("expected error")
		}
	}
}

func TestPendingBufferShedsOldestUnderBound(t *testing.T) {
	// No transport: flushes fail, the buffer is bounded at 3
	// readings, oldest shed first.
	clock := sim.NewVirtualClock(t0)
	n, err := New(Config{
		Spec:               fog1Spec(),
		Clock:              clock,
		Codec:              aggregate.CodecNone,
		MaxPendingReadings: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b := &model.Batch{
			NodeID: "edge", TypeName: "temperature", Category: model.CategoryEnergy,
			Collected: t0.Add(time.Duration(i) * time.Minute),
			Readings: []model.Reading{{
				SensorID: "s", TypeName: "temperature", Category: model.CategoryEnergy,
				Time: t0.Add(time.Duration(i) * time.Minute), Value: float64(i),
			}},
		}
		if err := n.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.ShedReadings(); got != 2 {
		t.Errorf("shed = %d, want 2", got)
	}
	// The surviving buffer holds the newest three readings, in order.
	net := transport.NewSimNetwork()
	var got *model.Batch
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		b, _, err := protocol.DecodeBatchPayload(msg.Payload)
		if err != nil {
			return nil, err
		}
		got = b
		return []byte("ok"), nil
	}))
	n.cfg.Transport = net
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Readings) != 3 {
		t.Fatalf("flushed batch = %+v", got)
	}
	if got.Readings[0].Value != 2 || got.Readings[2].Value != 4 {
		t.Errorf("kept values = %v..%v, want 2..4", got.Readings[0].Value, got.Readings[2].Value)
	}
}

func TestFlushCategorySelective(t *testing.T) {
	net := transport.NewSimNetwork()
	var mu sync.Mutex
	var got []model.Category
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		b, _, err := protocol.DecodeBatchPayload(msg.Payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		got = append(got, b.Category)
		mu.Unlock()
		return []byte("ok"), nil
	}))
	n := newTestNode(t, net, false)
	// Two categories pending: energy (temperature) and urban
	// (traffic).
	_ = n.Ingest(batchOf(map[string]float64{"a": 20}, t0))
	_ = n.Ingest(&model.Batch{
		NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: t0,
		Readings: []model.Reading{{
			SensorID: "loop", TypeName: "traffic", Category: model.CategoryUrban,
			Time: t0, Value: 50, Unit: "km/h",
		}},
	})
	if n.PendingBatches() != 2 {
		t.Fatalf("pending = %d, want 2", n.PendingBatches())
	}
	if err := n.FlushCategory(context.Background(), model.CategoryUrban); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(got) != 1 || got[0] != model.CategoryUrban {
		t.Fatalf("flushed categories = %v, want [urban]", got)
	}
	mu.Unlock()
	if n.PendingBatches() != 1 {
		t.Errorf("pending after category flush = %d, want 1 (energy still buffered)", n.PendingBatches())
	}
	if err := n.FlushCategory(context.Background(), model.Category(99)); err == nil {
		t.Error("invalid category must fail")
	}
	// Full flush drains the rest.
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n.PendingBatches() != 0 {
		t.Error("pending after full flush")
	}
}

// TestRequeueReappliesPendingBound reproduces the parent-outage growth
// bug: data ingested while a flush is in flight merges with the
// requeued failed batch, and the MaxPendingReadings bound must be
// re-applied so the buffer cannot exceed the configured limit. The
// failed batch is the outbox head, which may have reached the parent,
// so the bound trims the readings behind it.
func TestRequeueReappliesPendingBound(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	var n *Node
	net := transport.NewSimNetwork()
	fail := true
	var got *model.Batch
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		if fail {
			// Simulate concurrent arrivals during the in-flight flush:
			// these land in pending before the failed batch requeues.
			for i := 0; i < 3; i++ {
				b := batchOf(map[string]float64{"s": float64(10 + i)}, t0.Add(time.Duration(i+1)*time.Minute))
				if err := n.Ingest(b); err != nil {
					return nil, err
				}
			}
			return nil, errors.New("parent outage")
		}
		b, _, err := protocol.DecodeBatchPayload(msg.Payload)
		if err != nil {
			return nil, err
		}
		got = b
		return []byte("ok"), nil
	}))
	var err error
	n, err = New(Config{
		Spec:               fog1Spec(),
		Clock:              clock,
		Transport:          net,
		Codec:              aggregate.CodecNone,
		MaxPendingReadings: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b := batchOf(map[string]float64{"s": float64(i)}, t0.Add(time.Duration(i)*time.Second))
		if err := n.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("expected flush failure")
	}
	// 3 failed + 3 ingested-during-flush readings merged: the bound
	// must shed 3 instead of keeping all 6 — those behind the head.
	if shed := n.ShedReadings(); shed != 3 {
		t.Errorf("shed = %d, want 3 (requeue must re-apply the bound)", shed)
	}
	fail = false
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Readings) != 3 {
		t.Fatalf("recovered batch = %+v, want the head's 3 readings", got)
	}
	if got.Readings[0].Value != 0 || got.Readings[2].Value != 2 {
		t.Errorf("kept values = %v..%v, want 0..2 (the head kept, the readings behind it shed)",
			got.Readings[0].Value, got.Readings[2].Value)
	}
	if n.PendingBatches() != 0 {
		t.Errorf("%d delivery units left after the heal, want 0", n.PendingBatches())
	}
}
