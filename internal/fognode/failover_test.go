package fognode

// Unit coverage for the resilient-delivery path: the backoff/failover
// state machine (parent down -> retry -> sibling relay -> parent heal
// -> resume), frozen delivery sequences across retries, receive-path
// dedup, the relay handler, and the DroppedDuringOutage accounting.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
)

// scriptNet models the two paths out of a fog node during an
// asymmetric partition: the direct parent link (parentUp) and the
// sibling relay path (siblingUp — the sibling plus its own healthy
// parent link). Batches arriving at the parent by either path are
// deduped with a real ReplayFilter, mirroring the production receive
// path, and recorded.
type scriptNet struct {
	mu        sync.Mutex
	parentUp  bool
	siblingUp bool
	filter    *protocol.ReplayFilter
	delivered []*model.Batch // unique deliveries at the parent
	log       []string       // "<target>:<ok|fail>" per send
}

func newScriptNet() *scriptNet {
	return &scriptNet{filter: protocol.NewReplayFilter(0)}
}

func (s *scriptNet) Send(_ context.Context, msg transport.Message) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case msg.To == "fog2/d01" && msg.Kind == transport.KindBatch:
		if !s.parentUp {
			s.log = append(s.log, "parent:fail")
			return nil, errors.New("parent link down")
		}
		s.log = append(s.log, "parent:ok")
		return s.acceptLocked(msg.Payload)
	case msg.To == "fog1/d01-s02" && msg.Kind == transport.KindRelay:
		if !s.siblingUp {
			s.log = append(s.log, "sibling:fail")
			return nil, errors.New("sibling link down")
		}
		s.log = append(s.log, "sibling:ok")
		return s.acceptLocked(msg.Payload)
	default:
		return nil, &transport.RemoteError{Endpoint: msg.To, Msg: "unexpected message " + string(msg.Kind)}
	}
}

// acceptLocked is the parent's deduping receive path.
func (s *scriptNet) acceptLocked(payload []byte) ([]byte, error) {
	b, _, seq, err := protocol.DecodeBatchPayloadSeq(payload)
	if err != nil {
		return nil, err
	}
	if s.filter.Seen(b.NodeID, seq) {
		return []byte("ok"), nil
	}
	s.filter.Mark(b.NodeID, seq)
	s.delivered = append(s.delivered, b)
	return []byte("ok"), nil
}

func (s *scriptNet) takeLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.log
	s.log = nil
	return out
}

func (s *scriptNet) set(parentUp, siblingUp bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parentUp = parentUp
	s.siblingUp = siblingUp
}

func (s *scriptNet) deliveredReadings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, b := range s.delivered {
		total += len(b.Readings)
	}
	return total
}

func newFailoverNode(t *testing.T, net transport.Transport, clock sim.Clock) *Node {
	t.Helper()
	n, err := New(Config{
		Spec:          fog1Spec(),
		Clock:         clock,
		Transport:     net,
		Codec:         aggregate.CodecNone,
		Siblings:      []string{"fog1/d01-s02"},
		RetryBase:     time.Minute,
		RetryMax:      8 * time.Minute,
		FailoverAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFailoverStateMachine walks the full lifecycle as a step table:
// parent down -> backoff defers attempts -> window expiry re-probes ->
// threshold crossed -> sibling relay carries the traffic -> parent
// heals -> direct delivery resumes.
func TestFailoverStateMachine(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	net := newScriptNet()
	n := newFailoverNode(t, net, clock)

	steps := []struct {
		name      string
		parentUp  bool
		siblingUp bool
		advance   time.Duration
		ingest    float64 // NaN-free sentinel: <0 means no ingest
		wantErr   bool
		wantState UpstreamState
		wantLog   []string
	}{
		{
			name: "first failure enters backoff", parentUp: false, siblingUp: true,
			ingest: 1, wantErr: true, wantState: UpstreamBackoff,
			wantLog: []string{"parent:fail"},
		},
		{
			name: "inside the window the flush defers without an attempt", parentUp: false, siblingUp: true,
			ingest: -1, wantErr: false, wantState: UpstreamBackoff,
			wantLog: nil,
		},
		{
			name: "window expiry re-probes, threshold crossed, relay carries the batch", parentUp: false, siblingUp: true,
			advance: time.Minute, ingest: -1, wantErr: false, wantState: UpstreamRelay,
			wantLog: []string{"parent:fail", "sibling:ok"},
		},
		{
			name: "relay mode sends straight to the sibling inside the window", parentUp: false, siblingUp: true,
			ingest: 2, wantErr: false, wantState: UpstreamRelay,
			wantLog: []string{"sibling:ok"},
		},
		{
			name: "healed parent resumes direct delivery", parentUp: true, siblingUp: true,
			advance: 8 * time.Minute, ingest: 3, wantErr: false, wantState: UpstreamHealthy,
			wantLog: []string{"parent:ok"},
		},
		{
			name: "healthy steady state", parentUp: true, siblingUp: false,
			ingest: 4, wantErr: false, wantState: UpstreamHealthy,
			wantLog: []string{"parent:ok"},
		},
	}
	total := 0
	for _, st := range steps {
		net.set(st.parentUp, st.siblingUp)
		clock.Advance(st.advance)
		if st.ingest >= 0 {
			b := batchOf(map[string]float64{"s": st.ingest}, clock.Now())
			if err := n.Ingest(b); err != nil {
				t.Fatalf("%s: ingest: %v", st.name, err)
			}
			total++
		}
		err := n.Flush(context.Background())
		if (err != nil) != st.wantErr {
			t.Fatalf("%s: flush err = %v, want error %v", st.name, err, st.wantErr)
		}
		if got := n.UpstreamState(); got != st.wantState {
			t.Errorf("%s: state = %v, want %v", st.name, got, st.wantState)
		}
		got := net.takeLog()
		if len(got) != len(st.wantLog) {
			t.Fatalf("%s: sends = %v, want %v", st.name, got, st.wantLog)
		}
		for i := range got {
			if got[i] != st.wantLog[i] {
				t.Fatalf("%s: sends = %v, want %v", st.name, got, st.wantLog)
			}
		}
	}
	if n.PendingBatches() != 0 {
		t.Errorf("pending after recovery = %d", n.PendingBatches())
	}
	if got := net.deliveredReadings(); got != total {
		t.Errorf("delivered %d unique readings, ingested %d", got, total)
	}
	if n.RelayedBatches() == 0 {
		t.Error("relay counter never incremented")
	}
}

// TestFailoverWithoutBackoff pins what a node without RetryBase (every
// daemon's profile) does under a dead parent: no backoff window, so
// every flush attempts the parent, and after FailoverAfter consecutive
// failures the node relays through its sibling anyway.
func TestFailoverWithoutBackoff(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	net := newScriptNet()
	net.set(false, true)
	n, err := New(Config{
		Spec: fog1Spec(), Clock: clock, Transport: net, Codec: aggregate.CodecNone,
		Siblings: []string{"fog1/d01-s02"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := n.Ingest(batchOf(map[string]float64{"s": float64(i)}, clock.Now())); err != nil {
			t.Fatal(err)
		}
		// The first two flushes fail on the parent and hold their
		// batches; the third crosses the default threshold of 3.
		if err := n.Flush(context.Background()); (err != nil) != (i < 2) {
			t.Fatalf("flush %d: err = %v", i, err)
		}
		clock.Advance(time.Second)
	}
	if got := n.UpstreamState(); got != UpstreamRelay {
		t.Errorf("state = %v, want relay", got)
	}
	if got := n.RelayedBatches(); got != 4 {
		t.Errorf("relayed %d batches, want 4 of 4", got)
	}
	if got := net.deliveredReadings(); got != 4 {
		t.Errorf("delivered %d readings, want 4", got)
	}
	if got := n.DeferredFlushes(); got != 0 {
		t.Errorf("%d flushes deferred: without RetryBase every flush must attempt", got)
	}
}

// TestRetryKeepsDeliverySequence is the at-least-once core: a batch
// whose acknowledgement was lost is retried under the same sequence,
// and the deduping parent keeps exactly one copy.
func TestRetryKeepsDeliverySequence(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	simnet := transport.NewSimNetwork()
	var mu sync.Mutex
	filter := protocol.NewReplayFilter(0)
	var unique, raw int
	simnet.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		b, _, seq, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		raw++
		if seq == 0 {
			return nil, errors.New("flush payload carries no delivery sequence")
		}
		if !filter.Seen(b.NodeID, seq) {
			filter.Mark(b.NodeID, seq)
			unique += len(b.Readings)
		}
		return []byte("ok"), nil
	}))
	n, err := New(Config{
		Spec: fog1Spec(), Clock: clock, Transport: simnet, Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(batchOf(map[string]float64{"a": 1}, t0)); err != nil {
		t.Fatal(err)
	}
	// The reply is lost: the parent ingests, the sender sees an error
	// and requeues.
	simnet.SetReplyLoss(n.ID(), "fog2/d01", 1)
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("expected reply-loss flush error")
	}
	if n.PendingBatches() != 1 {
		t.Fatalf("batch not requeued after reply loss")
	}
	simnet.SetReplyLoss(n.ID(), "fog2/d01", 0)
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if raw != 2 {
		t.Errorf("parent saw %d deliveries, want 2 (original + retry)", raw)
	}
	if unique != 1 {
		t.Errorf("unique readings = %d, want 1: retry must reuse the delivery sequence", unique)
	}
}

// TestHandleBatchDedupsReplay covers the node's own receive path: the
// same sealed payload delivered twice ingests once.
func TestHandleBatchDedupsReplay(t *testing.T) {
	n := newTestNode(t, nil, false)
	child := batchOf(map[string]float64{"a": 20}, t0)
	child.NodeID = "fog1/child"
	var s protocol.Sealer
	payload, err := s.SealSeq(nil, child, aggregate.CodecNone, 9)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{From: "fog1/child", Kind: transport.KindBatch, Payload: payload}
	for i := 0; i < 2; i++ {
		if _, err := n.Handle(context.Background(), msg); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if got := n.Query("temperature", t0, t0.Add(time.Hour)); len(got) != 1 {
		t.Errorf("stored %d readings after a replay, want 1", len(got))
	}
	if n.DuplicateBatches() != 1 {
		t.Errorf("duplicates = %d, want 1", n.DuplicateBatches())
	}
	// A version-1 envelope (sequence 0) is never deduped.
	v1, err := protocol.EncodeBatchPayload(batchOf(map[string]float64{"b": 1}, t0.Add(time.Minute)), aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := n.Handle(context.Background(), transport.Message{Kind: transport.KindBatch, Payload: v1}); err != nil {
			t.Fatal(err)
		}
	}
	if n.DuplicateBatches() != 1 {
		t.Errorf("sequence-0 deliveries were deduped (duplicates = %d)", n.DuplicateBatches())
	}
}

// TestHandleRelayForwardsToParent covers the receiving half of
// failover: a relayed payload is forwarded to the node's parent
// unchanged, and a parentless node refuses.
func TestHandleRelayForwardsToParent(t *testing.T) {
	simnet := transport.NewSimNetwork()
	var got transport.Message
	simnet.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		got = msg
		return []byte("ok"), nil
	}))
	n := newTestNode(t, simnet, false)
	var s protocol.Sealer
	payload, err := s.SealSeq(nil, batchOf(map[string]float64{"a": 2}, t0), aggregate.CodecNone, 5)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := n.Handle(context.Background(), transport.Message{
		From: "fog1/d01-s03", Kind: transport.KindRelay, Class: "energy", Payload: payload,
	})
	if err != nil || string(reply) != "ok" {
		t.Fatalf("relay = %q, %v", reply, err)
	}
	if got.Kind != transport.KindBatch || got.To != "fog2/d01" || got.From != n.ID() {
		t.Errorf("forwarded message = %+v", got)
	}
	if _, _, seq, err := protocol.DecodeBatchPayloadSeq(got.Payload); err != nil || seq != 5 {
		t.Errorf("forwarded payload seq = %d, %v: relay must not reframe", seq, err)
	}

	orphan, err := New(Config{
		Spec:  fog1Spec(),
		Clock: sim.NewVirtualClock(t0),
	})
	if err != nil {
		t.Fatal(err)
	}
	orphan.cfg.Spec.Parent = ""
	if _, err := orphan.Handle(context.Background(), transport.Message{Kind: transport.KindRelay, Payload: payload}); err == nil {
		t.Error("parentless relay must fail")
	}
}

// TestDroppedDuringOutageCounted: readings shed from the retry queue
// while the parent is unreachable must increment the dedicated
// outage-drop counter, while bound shedding of fresh data must not.
// The outbox head is never shed (it may have reached the parent), so
// the outage-held readings that go are those parked behind it.
func TestDroppedDuringOutageCounted(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	net := transport.NewSimNetwork()
	up := true
	net.Register("fog2/d01", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		if !up {
			return nil, errors.New("parent outage")
		}
		return []byte("ok"), nil
	}))
	n, err := New(Config{
		Spec:               fog1Spec(),
		Clock:              clock,
		Transport:          net,
		Codec:              aggregate.CodecNone,
		MaxPendingReadings: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			b := batchOf(map[string]float64{"s": float64(i)}, t0.Add(time.Duration(i)*time.Minute))
			if err := n.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No outage: shedding fresh pending data counts as shed only.
	ingest(0, 5)
	if n.ShedReadings() != 2 || n.DroppedDuringOutage() != 0 {
		t.Fatalf("pre-outage shed=%d outage=%d, want 2/0", n.ShedReadings(), n.DroppedDuringOutage())
	}
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// An outage parks one reading as the head and two behind it...
	up = false
	ingest(5, 6)
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("expected flush failure")
	}
	ingest(6, 8)
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("expected flush failure")
	}
	// ...and fresh arrivals push them over the bound: the two behind
	// the head are shed AND counted as dropped-during-outage.
	ingest(8, 10)
	if got := n.DroppedDuringOutage(); got != 2 {
		t.Errorf("DroppedDuringOutage = %d, want 2", got)
	}
	if got := n.ShedReadings(); got != 4 {
		t.Errorf("ShedReadings = %d, want 4 (2 fresh + 2 outage)", got)
	}
	if got := n.PendingReadings(); got != 3 {
		t.Errorf("PendingReadings = %d, want the bound (3)", got)
	}
}

// TestFailoverJitterDistinctPerNode: two nodes with IDENTICAL configs
// but their node IDs must draw distinct backoff jitter sequences, or
// siblings back off and re-probe a recovering parent in lockstep and
// storm it after an outage. The node's identity seeds the jitter,
// which still keeps each node's own sequence deterministic for
// reproduction.
func TestFailoverJitterDistinctPerNode(t *testing.T) {
	mk := func(id string) *upstream {
		spec := fog1Spec()
		spec.ID = id
		return newUpstream(&Config{
			Spec:          spec,
			RetryBase:     time.Minute,
			RetryMax:      32 * time.Minute,
			FailoverAfter: 4,
		})
	}
	draw := func(u *upstream) time.Duration {
		u.mu.Lock()
		defer u.mu.Unlock()
		u.fails = 3 // deep enough that the jitter range spans minutes
		return u.backoffLocked()
	}

	a, b := mk("fog1/d01-s01"), mk("fog1/d01-s02")
	const draws = 64
	distinct := false
	for i := 0; i < draws; i++ {
		if draw(a) != draw(b) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatalf("siblings with identical configs drew %d identical jitter values: lockstep backoff", draws)
	}

	// Reproducibility is preserved: the same identity replays the
	// same sequence.
	c, d := mk("fog1/d01-s01"), mk("fog1/d01-s01")
	for i := 0; i < draws; i++ {
		if dc, dd := draw(c), draw(d); dc != dd {
			t.Fatalf("draw %d: same node identity diverged (%v vs %v)", i, dc, dd)
		}
	}
}
