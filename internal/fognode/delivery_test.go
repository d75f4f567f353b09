package fognode

// Delivery-contract tests that hold whatever the delivery mechanism
// is: per-type order under overlapping flushes, each kind's overflow
// counters, atomic receive-side dedup, and the degrade ledger across
// crashes.

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
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// TestOverlappingFlushesKeepSealOrder: a second Flush collects the
// type's fresh data while the first Flush's send is still in flight,
// and that first send then fails. The parent must still see the type's
// sequences in seal order with nothing skipped — the younger batch may
// not overtake the older one that has to be retried.
func TestOverlappingFlushesKeepSealOrder(t *testing.T) {
	net := transport.NewSimNetwork()
	var n *Node
	var mu sync.Mutex
	var delivered []uint64
	calls := 0
	second := make(chan error, 1)
	net.Register("fog2/d01", transport.HandlerFunc(func(ctx context.Context, msg transport.Message) ([]byte, error) {
		_, _, seq, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			if err := n.Ingest(batchOf(map[string]float64{"b": 2}, t0.Add(time.Minute))); err != nil {
				return nil, err
			}
			go func() { second <- n.Flush(context.Background()) }()
			// The second flush has collected once the fresh readings
			// have left the pending buffer.
			sh := n.shardFor("temperature")
			for collected := false; !collected; time.Sleep(time.Millisecond) {
				sh.mu.Lock()
				_, pending := sh.pending["temperature"]
				sh.mu.Unlock()
				collected = !pending
			}
			return nil, errors.New("parent hiccup")
		}
		mu.Lock()
		delivered = append(delivered, seq)
		mu.Unlock()
		return []byte("ok"), nil
	}))
	var err error
	n, err = New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: net, Codec: aggregate.CodecNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(batchOf(map[string]float64{"a": 1}, t0)); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("first flush reported success although its send failed")
	}
	if err := <-second; err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if err := n.Flush(context.Background()); err != nil {
		t.Fatalf("draining flush: %v", err)
	}
	if n.PendingBatches() != 0 {
		t.Fatalf("%d batches still pending", n.PendingBatches())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 2 || delivered[0] >= delivered[1] {
		t.Fatalf("parent saw sequences %v, want the two batches in seal order", delivered)
	}
}

// downParent is a parent endpoint that fails every send.
func downParent() *transport.SimNetwork {
	net := transport.NewSimNetwork()
	net.Register("fog2/d01", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		return nil, errors.New("parent down")
	}))
	return net
}

// TestBoundNeverTrimsTheHeadOnTheWire: the parent accepts fog1's
// batch but the acknowledgement is lost, so the batch stays fog1's
// outbox head. Readings then arrive past MaxPendingReadings on a
// degrading node. The bound must fold the readings behind the head,
// not the head: its readings are at the parent already, and folding
// them would deliver them a second time, as a summary. After the heal
// the parent holds every accepted reading once, raw or degraded.
func TestBoundNeverTrimsTheHeadOnTheWire(t *testing.T) {
	ctx := context.Background()
	parent, err := New(Config{Spec: topology.NodeSpec{ID: "fog2/d01", Layer: topology.LayerFog2, Name: "d01"},
		Clock: sim.NewVirtualClock(t0), Codec: aggregate.CodecNone})
	if err != nil {
		t.Fatal(err)
	}
	ackLost := true
	net := transport.NewSimNetwork()
	net.Register("fog2/d01", transport.HandlerFunc(func(ctx context.Context, msg transport.Message) ([]byte, error) {
		ack, err := parent.Handle(ctx, msg)
		if ackLost {
			return nil, errors.New("ack lost after processing")
		}
		return ack, err
	}))
	n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: net, Codec: aggregate.CodecNone,
		MaxPendingReadings: 3, DegradeToSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	ingest := func(vals ...float64) {
		t.Helper()
		if err := n.Ingest(typedBatch("traffic", t0.Add(time.Duration(accepted)*time.Second), vals...)); err != nil {
			t.Fatal(err)
		}
		accepted += len(vals)
	}
	ingest(0, 1, 2)
	if err := n.Flush(ctx); err == nil {
		t.Fatal("flush survived the lost acknowledgement")
	}
	ingest(3, 4, 5) // 6 buffered, bound 3
	ackLost = false
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	raw := parent.Status().StoredReadings
	var degraded int64
	sh := parent.shardFor("traffic")
	sh.mu.Lock()
	if buf := sh.degraded["traffic"]; buf != nil {
		for _, w := range buf.windows {
			degraded += w.Count
		}
	}
	sh.mu.Unlock()
	if raw+degraded != int64(accepted) {
		t.Errorf("parent holds %d raw + %d degraded readings, fog1 accepted %d", raw, degraded, accepted)
	}
	if got := n.PendingBatches(); got != 0 {
		t.Errorf("%d delivery units left at fog1 after the heal", got)
	}
}

// TestOverflowPolicyCounters drives each kind's overflow policy
// through a parent outage and checks the counter that accounts for it.
func TestOverflowPolicyCounters(t *testing.T) {
	ctx := context.Background()
	reading := func(i int) *model.Batch {
		return typedBatch("traffic", t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	counter := func(n *Node, name string) int64 {
		return n.cfg.Registry.Counter(n.ID() + "." + name).Value()
	}

	t.Run("batch readings shed", func(t *testing.T) {
		n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: downParent(),
			Codec: aggregate.CodecNone, MaxPendingReadings: 3})
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Ingest(reading(0))
		_ = n.Flush(ctx) // the outbox head: it may have reached the parent, so it stays
		_ = n.Ingest(reading(1))
		_ = n.Ingest(reading(2))
		_ = n.Flush(ctx) // parks 2 readings behind the head
		_ = n.Ingest(reading(3))
		_ = n.Ingest(reading(4)) // 5 buffered, bound 3: the 2 parked readings behind the head go
		if shed, dropped := counter(n, "flush.shed"), counter(n, "flush.dropped_during_outage"); shed != 2 || dropped != 2 {
			t.Errorf("shed = %d, dropped during outage = %d, want 2 and 2", shed, dropped)
		}
		if got := n.PendingReadings(); got != 3 {
			t.Errorf("pending readings = %d, want the bound 3", got)
		}
	})

	// Both degrading cases run the same rounds: every round one reading
	// arrives over a bound of one, so the parked reading of the round
	// before folds into the degrade buffer, and the failing flush seals
	// that buffer into one more parked summary push.
	degrading := func(t *testing.T, rounds int) *Node {
		n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: downParent(),
			Codec: aggregate.CodecNone, MaxPendingReadings: 1, DegradeToSummary: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rounds; i++ {
			_ = n.Ingest(reading(i))
			_ = n.Flush(ctx)
		}
		return n
	}
	t.Run("batch readings degraded", func(t *testing.T) {
		n := degrading(t, 3)
		if degraded, shed := counter(n, "flush.degraded_readings"), counter(n, "flush.shed"); degraded != 2 || shed != 0 {
			t.Errorf("degraded = %d, shed = %d, want 2 and 0", degraded, shed)
		}
	})
	t.Run("summary pushes dropped", func(t *testing.T) {
		// Round r parks push r-1; the 64 a type may park are exceeded
		// by two after round 67, and each dropped push summarized one
		// reading.
		n := degrading(t, 67)
		if degraded, shed := counter(n, "flush.degraded_readings"), counter(n, "flush.shed"); degraded != 66 || shed != 2 {
			t.Errorf("degraded = %d, shed = %d, want 66 and 2", degraded, shed)
		}
	})

	t.Run("alert pushes folded", func(t *testing.T) {
		clock := sim.NewVirtualClock(t0)
		n, err := New(Config{Spec: fog1Spec(), Clock: clock, Transport: downParent(), Codec: aggregate.CodecNone})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Subscribe(windowSub("w", "traffic", time.Minute)); err != nil {
			t.Fatal(err)
		}
		// Every round closes one window: one more parked alert push.
		for i := 0; i < 66; i++ {
			_ = n.Ingest(typedBatch("traffic", clock.Now(), float64(i)))
			clock.Advance(time.Minute)
			_ = n.Flush(ctx)
		}
		if fired, folds, shed := n.AlertsFired(), counter(n, "cq.retry_folds"), counter(n, "cq.alerts_shed"); fired != 66 || folds != 2 || shed != 0 {
			t.Errorf("fired = %d, folds = %d, shed = %d, want 66, 2 and 0: overflow re-batches alerts, it does not drop them", fired, folds, shed)
		}
	})
}

// TestConcurrentDuplicateDeliveryIngestedOnce: a timed-out send's
// retry can overlap its still-running original, so N copies of one
// sealed envelope arrive at a fog2 at once. Exactly one may be
// ingested; the others are acknowledged as duplicates.
func TestConcurrentDuplicateDeliveryIngestedOnce(t *testing.T) {
	f2, err := New(Config{
		Spec:  topology.NodeSpec{ID: "fog2/d01", Layer: topology.LayerFog2, Parent: "cloud", Name: "Ciutat Vella"},
		Clock: sim.NewVirtualClock(t0), Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	child := typedBatch("traffic", t0, 1, 2, 3)
	child.NodeID = "fog1/d01-s01"
	payload, err := (&protocol.Sealer{}).SealSeq(nil, child, aggregate.CodecNone, 41)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 8
	var wg sync.WaitGroup
	for i := 0; i < copies; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := transport.Message{From: child.NodeID, To: f2.ID(), Kind: transport.KindBatch, Payload: payload}
			if _, err := f2.Handle(context.Background(), msg); err != nil {
				t.Errorf("copy rejected: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := f2.PendingReadings(); got != 3 {
		t.Errorf("fog2 buffered %d readings, want 3: a duplicate was ingested", got)
	}
	if got := len(f2.Query("traffic", t0.Add(-time.Hour), t0.Add(time.Hour))); got != 3 {
		t.Errorf("fog2 stored %d readings, want 3", got)
	}
	if got := f2.DuplicateBatches(); got != copies-1 {
		t.Errorf("DuplicateBatches = %d, want %d", got, copies-1)
	}
}

// ledgerParent is a scriptable upstream endpoint that keeps the
// conservation ledger of a degrading child: raw readings by value and
// the readings summarized by degraded pushes, both deduped by
// (origin, seq).
type ledgerParent struct {
	mu       sync.Mutex
	down     bool
	filter   *protocol.ReplayFilter
	raw      map[float64]int
	degraded int64
}

func (p *ledgerParent) setDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

func (p *ledgerParent) Send(_ context.Context, msg transport.Message) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil, errors.New("parent down")
	}
	switch msg.Kind {
	case transport.KindBatch:
		b, _, seq, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
		if err != nil {
			return nil, err
		}
		if !p.filter.Seen(b.NodeID, seq) {
			p.filter.Mark(b.NodeID, seq)
			for _, r := range b.Readings {
				p.raw[r.Value]++
			}
		}
	case transport.KindSummaryPush:
		var push protocol.SummaryPush
		if err := protocol.DecodeJSON(msg.Payload, &push); err != nil {
			return nil, err
		}
		if !p.filter.Seen(push.Origin, push.Seq) {
			p.filter.Mark(push.Origin, push.Seq)
			p.degraded += push.Readings()
		}
	default:
		return nil, fmt.Errorf("ledgerParent: unexpected kind %q", msg.Kind)
	}
	return []byte("ok"), nil
}

// TestDegradeRecoveryPropertySeeded is TestRecoveryPropertySeeded with
// the degrade tier on: randomized ingest / flush / crash / checkpoint
// interleavings against a parent that comes and goes, under a bound
// small enough to keep folding readings into summaries. A crash may
// land between a fold and the push that carries it, between the seal
// of a push and its acknowledgement, or after a checkpoint that folded
// the degrade buffer into a snapshot; after the parent heals and the
// node drains, every accepted reading must be preserved raw, counted
// inside a degraded summary or counted shed — exactly once.
func TestDegradeRecoveryPropertySeeded(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			parent := &ledgerParent{filter: protocol.NewReplayFilter(0), raw: make(map[float64]int)}
			// One registry across the lives: shed is accounted by the
			// life that shed, and recovery does not re-count.
			cfg := Config{
				Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: parent, Codec: aggregate.CodecNone,
				MaxPendingReadings: 5, DegradeToSummary: true,
				Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
			}
			boot := func() *Node {
				n, err := New(cfg)
				if err != nil {
					t.Fatalf("seed %d: boot: %v", seed, err)
				}
				cfg.Registry = n.cfg.Registry
				return n
			}
			n := boot()
			types := []string{"traffic", "noise_level"}
			ctx := context.Background()
			accepted, nextVal, at, crashes := 0, 0.0, t0, 0
			for op := 0; op < 200; op++ {
				at = at.Add(time.Second)
				switch k := rng.Intn(10); {
				case k < 5:
					vals := make([]float64, 1+rng.Intn(4))
					for i := range vals {
						nextVal++
						vals[i] = nextVal
					}
					if err := n.Ingest(typedBatch(types[rng.Intn(len(types))], at, vals...)); err != nil {
						t.Fatalf("seed %d: ingest: %v", seed, err)
					}
					accepted += len(vals)
				case k < 8:
					parent.setDown(rng.Intn(3) > 0)
					_ = n.Flush(ctx)
				case k < 9:
					want := n.PendingBatches()
					n.Discard()
					n = boot()
					crashes++
					if got := n.PendingBatches(); got != want {
						t.Fatalf("seed %d op %d: recovered %d delivery units, want %d", seed, op, got, want)
					}
				default:
					if err := n.Checkpoint(); err != nil {
						t.Fatalf("seed %d: checkpoint: %v", seed, err)
					}
				}
			}
			parent.setDown(false)
			for round := 0; round < 8 && n.PendingBatches() > 0; round++ {
				if err := n.Flush(ctx); err != nil {
					t.Fatalf("seed %d: drain flush: %v", seed, err)
				}
			}
			preserved := 0
			for v, c := range parent.raw {
				if c != 1 {
					t.Fatalf("seed %d: reading %v preserved %d times", seed, v, c)
				}
				preserved++
			}
			if n.degradedReads.Value() == 0 || crashes == 0 {
				t.Fatalf("seed %d: vacuous run: %d readings degraded, %d crashes", seed, n.degradedReads.Value(), crashes)
			}
			if got := int64(preserved) + parent.degraded + n.ShedReadings(); got != int64(accepted) {
				t.Fatalf("seed %d: preserved %d + degraded %d + shed %d = %d, accepted %d",
					seed, preserved, parent.degraded, n.ShedReadings(), got, accepted)
			}
		})
	}
}
