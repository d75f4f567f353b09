package fognode

// The differential proof that replay is the live path: seeded random
// sequences of live operations run on a durable node, which is then
// rebuilt from its data dir without Close. The rebuilt node must hold
// exactly the live node's delivery state, compared canonically by
// type (the snapshot iterates maps): the items of every outbox in
// queue order, the pending buffers, the degrade windows, the sequence
// counter, the replay marks, the standing subscriptions and the store.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/store"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// replayNet is TestReplayMatchesLive's transport: the parent is a sink
// that is up or down, and the sibling fog nodes that handoffs and
// routed ingest reach answer while the sibling link is up.
type replayNet struct {
	mu       sync.Mutex
	parentUp bool
	linkUp   bool
	nodes    map[string]transport.Handler
}

func (r *replayNet) set(parentUp, linkUp bool) {
	r.mu.Lock()
	r.parentUp, r.linkUp = parentUp, linkUp
	r.mu.Unlock()
}

func (r *replayNet) attach(id string, h transport.Handler) {
	r.mu.Lock()
	r.nodes[id] = h
	r.mu.Unlock()
}

func (r *replayNet) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	r.mu.Lock()
	parentUp, linkUp, h := r.parentUp, r.linkUp, r.nodes[msg.To]
	r.mu.Unlock()
	switch {
	case msg.To == fog1Spec().Parent && parentUp:
		return []byte("ok"), nil
	case msg.To == fog1Spec().Parent:
		return nil, errors.New("parent down")
	case h == nil:
		return nil, transport.ErrUnknownEndpoint
	case !linkUp:
		return nil, errors.New("sibling link down")
	}
	return h.Handle(ctx, msg)
}

// replayView is a node's delivery state in canonical form.
type replayView struct {
	Items    map[string][]string
	Pending  map[string][]string
	Degraded map[string]string
	Seq      uint64
	Marks    map[string][]uint64
	Subs     []cq.Subscription
	Stored   store.Stats
}

func readingKey(r *model.Reading) string {
	return fmt.Sprintf("%s|%d|%v|%s|%v|%v|%s", r.SensorID, r.Time.UnixNano(), r.Value, r.Unit, r.Location.Lat, r.Location.Lon, r.Category)
}

// viewOf renders a node's state. An item's readings are rendered in
// sorted order: a send sorts a batch item in place, which the log
// does not record and which changes no reading.
func viewOf(n *Node) replayView {
	v := replayView{
		Items: map[string][]string{}, Pending: map[string][]string{}, Degraded: map[string]string{},
		Seq: n.seq.Load(), Marks: n.replay.Dump(), Subs: n.cqe.Subscriptions(), Stored: n.store.Stats(),
	}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for typ, q := range sh.outbox {
			for _, it := range q.items {
				s := fmt.Sprintf("%s %s %d %s", it.kind, it.origin, it.seq, it.class)
				if it.b != nil {
					b := it.b.Clone()
					sortBatchReadings(b)
					for k := range b.Readings {
						s += " " + readingKey(&b.Readings[k])
					}
				} else {
					s += " " + string(it.payload)
				}
				v.Items[typ] = append(v.Items[typ], s)
			}
		}
		for typ, p := range sh.pending {
			for k := range p.Readings {
				v.Pending[typ] = append(v.Pending[typ], readingKey(&p.Readings[k]))
			}
		}
		for typ, buf := range sh.degraded {
			starts := make([]int64, 0, len(buf.windows))
			for ws := range buf.windows {
				starts = append(starts, ws)
			}
			sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
			s := buf.category.String()
			for _, ws := range starts {
				s += fmt.Sprintf(" %d:%+v", ws, buf.windows[ws])
			}
			v.Degraded[typ] = s
		}
		sh.mu.Unlock()
	}
	return v
}

func (v replayView) diff(w replayView) string {
	var out []string
	rv, rw := reflect.ValueOf(v), reflect.ValueOf(w)
	for i := 0; i < rv.NumField(); i++ {
		if a, b := rv.Field(i).Interface(), rw.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			out = append(out, fmt.Sprintf("%s:\n  live      %v\n  recovered %v", rv.Type().Field(i).Name, a, b))
		}
	}
	return strings.Join(out, "\n")
}

// replayCoverage counts, over all seeds, the transitions the live
// sequences made, so a generator change cannot quietly stop
// exercising one.
var replayCoverage = []string{
	"ingest.batches", "ingest.duplicates", "flush.batches", "flush.shed", "flush.degraded_readings",
	"flush.summaries_emitted", "ingest.degraded_in", "migrate.out_transfers", "migrate.in_transfers",
	"cq.alerts_fired", "cq.alerts_in", "cq.retry_folds",
}

// TestReplayMatchesLive drives seeded random sequences — sequenced and
// unsequenced accepts, whole and chunked seals, flushes whose sends
// commit or fail, shed and degrade under MaxPendingReadings, absorbed
// summary and alert pushes, alert fires and folds, migrations out and
// in, routed ingest, subscribe and unsubscribe, checkpoints — on a
// durable node, rebuilds it from its data dir without Close after
// each of two rounds, and requires the rebuilt node to equal the live
// one.
func TestReplayMatchesLive(t *testing.T) {
	const seeds = 40
	covered := map[string]int64{}
	ran := 0
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ran++
			replayMatchesLive(t, seed, covered)
		})
	}
	if ran == seeds && !t.Failed() {
		for _, name := range append(replayCoverage, "op.chunked_seal", "op.checkpoint", "op.routed", "op.unsubscribe") {
			if covered[name] == 0 {
				t.Errorf("no seed exercised %s", name)
			}
		}
	}
}

func replayMatchesLive(t *testing.T, seed int64, covered map[string]int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	clock := sim.NewVirtualClock(t0)
	net := &replayNet{parentUp: true, linkUp: true, nodes: map[string]transport.Handler{}}
	me, src, dst, child := fog1Spec().ID, "fog1/d01-s02", "fog1/d01-s03", "fog1/child"
	bound := []int{0, 8, 24}[rng.Intn(3)]
	degrade := rng.Intn(2) == 0
	dir := t.TempDir()
	open := func(id, dir string) *Node {
		t.Helper()
		spec := fog1Spec()
		spec.ID = id
		cfg := Config{
			Spec: spec, Clock: clock, Transport: net, Codec: aggregate.CodecNone, FlushWorkers: 1,
			MaxPendingReadings: bound, DegradeToSummary: degrade,
		}
		if dir != "" {
			cfg.Durability = &wal.Config{Dir: dir, SnapshotEvery: -1}
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: open %s: %v", seed, id, err)
		}
		net.attach(id, n)
		return n
	}
	n := open(me, dir)
	source := open(src, "")
	open(dst, "")

	types := []string{"traffic", "noise_level", "air_quality"}
	var childSeq uint64
	var childSent []transport.Message
	send := func(kind transport.Kind, payload []byte) {
		msg := transport.Message{From: child, To: me, Kind: kind, Payload: payload}
		childSent = append(childSent, msg)
		if _, err := n.Handle(ctx, msg); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, kind, err)
		}
	}
	batch := func(typ string) *model.Batch {
		vals := make([]float64, 1+rng.Intn(6))
		for i := range vals {
			vals[i] = float64(rng.Intn(100))
		}
		return typedBatch(typ, clock.Now(), vals...)
	}
	alertPush := func(typ string) {
		childSeq++
		start := clock.Now().Truncate(time.Second).UnixNano()
		payload, err := protocol.EncodeAlertPush(&protocol.AlertPush{
			Origin: child, Seq: childSeq, TypeName: typ, Category: model.CategoryUrban.String(),
			Alerts: []protocol.Alert{{SubID: "child-sub", FiredBy: child, Kind: protocol.AlertKindWindow,
				StartUnix: start, EndUnix: start + int64(time.Second), Summary: aggregate.Summary{Count: 1, Sum: 5, Min: 5, Max: 5}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		send(transport.KindAlertPush, payload)
	}
	summaryPush := func(typ string) {
		childSeq++
		start := clock.Now().Truncate(time.Minute).UnixNano()
		payload, err := protocol.EncodeJSON(protocol.SummaryPush{
			Origin: child, Seq: childSeq, TypeName: typ, Category: model.CategoryUrban.String(),
			Windows: []protocol.SummaryWindow{{StartUnix: start, EndUnix: start + int64(time.Minute),
				Summary: aggregate.Summary{Count: int64(1 + rng.Intn(5)), Sum: float64(rng.Intn(50)), Min: 1, Max: 9}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		send(transport.KindSummaryPush, payload)
	}
	count := func(name string) { covered[name]++ }

	// known is whether the counter is one the journal can name: a
	// node that has not moved it since it opened on a log naming none
	// starts its next life at a fresh random base, by design.
	known := false
	for round := 0; round < 2; round++ {
		base := n.seq.Load()
		for op := 0; op < 120; op++ {
			typ := types[rng.Intn(len(types))]
			clock.Advance(time.Duration(rng.Intn(2500)) * time.Millisecond)
			net.set(rng.Intn(3) > 0, rng.Intn(4) > 0)
			switch k := rng.Intn(100); {
			case k < 20: // unsequenced edge ingest
				if err := n.Ingest(batch(typ)); err != nil {
					t.Fatal(err)
				}
			case k < 32: // a child's sequenced batch, or a retry of an earlier delivery
				if len(childSent) > 0 && rng.Intn(4) == 0 {
					msg := childSent[rng.Intn(len(childSent))]
					if _, err := n.Handle(ctx, msg); err != nil {
						t.Fatal(err)
					}
					continue
				}
				b := batch(typ)
				b.NodeID = child
				childSeq++
				payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, childSeq)
				if err != nil {
					t.Fatal(err)
				}
				send(transport.KindBatch, payload)
			case k < 42:
				_ = n.Flush(ctx)
			case k < 47: // a chunked seal, as logs of older nodes hold
				sh := n.shardFor(typ)
				sh.mu.Lock()
				sealChunkedLocked(n, sh, typ, 1+rng.Intn(4))
				sh.mu.Unlock()
				count("op.chunked_seal")
			case k < 52:
				summaryPush(typ)
			case k < 56:
				alertPush(typ)
			case k < 62:
				sub := cq.Subscription{ID: fmt.Sprintf("s%d", rng.Intn(4)), TypeName: typ, Kind: cq.KindThreshold,
					Window: time.Duration(1+rng.Intn(3)) * time.Second, Predicate: cq.PredAbove, Threshold: 60}
				if rng.Intn(2) == 0 {
					sub = windowSub(sub.ID, typ, time.Duration(1+rng.Intn(5))*time.Second)
				}
				if err := n.Subscribe(sub); err != nil {
					t.Fatal(err)
				}
			case k < 65:
				if n.Unsubscribe(fmt.Sprintf("s%d", rng.Intn(4))) {
					count("op.unsubscribe")
				}
			case k < 70:
				_ = n.MigrateOut(ctx, typ, dst)
			case k < 76: // a sibling hands a type over
				if err := source.Ingest(batch(typ)); err != nil {
					t.Fatal(err)
				}
				_ = source.MigrateOut(ctx, typ, me)
			case k < 81: // edge ingest of a type whose ownership moved
				n.SetRoute(typ, dst)
				if err := n.Ingest(batch(typ)); err != nil {
					t.Fatal(err)
				}
				n.ClearRoute(typ)
				count("op.routed")
			case k < 86:
				if err := n.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				known = true
				count("op.checkpoint")
			case k < 88: // a long outage: a child's alert pushes park past the fold bound
				for i := 0; i < maxParkedPushes+4; i++ {
					alertPush(typ)
				}
			case k < 89: // a long outage on a degrading child: summary pushes park past their bound
				net.set(false, false)
				for i := 0; i < maxParkedPushes+2; i++ {
					summaryPush(typ)
					_ = n.Flush(ctx)
				}
			default:
				clock.Advance(time.Duration(rng.Intn(20)) * time.Second)
			}
		}
		for _, name := range replayCoverage {
			covered[name] += n.cfg.Registry.Counter(me + "." + name).Value()
		}
		if n.seq.Load() != base {
			known = true
		}
		live := viewOf(n)
		n.Discard()
		n = open(me, dir)
		got := viewOf(n)
		if !known {
			got.Seq = live.Seq
		}
		if d := live.diff(got); d != "" {
			t.Fatalf("seed %d round %d (bound %d, degrade %v): the recovered node differs from the live one:\n%s", seed, round, bound, degrade, d)
		}
	}
	n.Discard()
}

// sealChunkedLocked freezes a type's pending buffer as a run of items
// of at most size readings, each under its own sequence and seal
// record. No live path cuts a buffer any more, but logs written by
// nodes that ran an RTT-driven flush policy hold such seals, and
// replay must keep honouring a seal record's count. The caller holds
// the shard lock.
func sealChunkedLocked(n *Node, sh *pendingShard, typ string, size int) {
	for p := sh.pending[typ]; p != nil; p = sh.pending[typ] {
		count := min(len(p.Readings), size)
		seq := n.seq.Add(1)
		n.dur.Journal.Note(sealRecord(typ, seq, count))
		n.applySeal(sh, typ, seq, count)
	}
}

// TestFailedHandoffTrimMatchesReplay: a handoff seals every queued
// batch, and sealing sorts a batch's readings by time. When the
// handoff fails the items stay queued, and a later bound trim cuts
// their oldest readings by position — which must be the position the
// log holds, or the rebuilt node trims other readings than the live
// one did.
func TestFailedHandoffTrimMatchesReplay(t *testing.T) {
	net := &replayNet{nodes: map[string]transport.Handler{}} // parent and sibling down
	dir := t.TempDir()
	open := func() *Node {
		n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: net, Codec: aggregate.CodecNone,
			MaxPendingReadings: 6, Durability: &wal.Config{Dir: dir, SnapshotEvery: -1}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := open()
	newestFirst := func(vals ...float64) *model.Batch {
		b := typedBatch("traffic", t0, vals...)
		for i := range b.Readings {
			b.Readings[i].Time = t0.Add(time.Duration(len(vals)-i) * time.Second)
		}
		return b
	}
	for i := 0; i < 3; i++ {
		if err := n.Ingest(newestFirst(float64(10*i+1), float64(10*i+2))); err != nil {
			t.Fatal(err)
		}
		sh := n.shardFor("traffic")
		sh.mu.Lock()
		n.sealPendingLocked(sh, "traffic")
		sh.mu.Unlock()
	}
	if err := n.MigrateOut(context.Background(), "traffic", "fog1/d01-s02"); err == nil {
		t.Fatal("handoff to an unreachable sibling succeeded")
	}
	if err := n.Ingest(newestFirst(100)); err != nil { // over the bound: trims a parked item
		t.Fatal(err)
	}
	live := viewOf(n)
	n.Discard()
	re := open()
	defer re.Discard()
	if d := live.diff(viewOf(re)); d != "" {
		t.Fatalf("the recovered node differs from the live one:\n%s", d)
	}
}

// TestReplayShedUnderClaim: a bound trim that runs while a handoff
// claims a type's whole outbox cuts only readings behind the claim.
// Replay runs with nothing claimed, so the shed record must carry the
// claim, or the rebuilt node trims the parked items instead: readings
// shed live come back after a crash, and others are lost.
func TestReplayShedUnderClaim(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	net := &replayNet{linkUp: true, nodes: map[string]transport.Handler{}} // parent down
	net.attach("fog1/d01-s02", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		close(entered)
		<-release
		return []byte("ok"), nil
	}))
	dir := t.TempDir()
	open := func() *Node {
		n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: net, Codec: aggregate.CodecNone,
			MaxPendingReadings: 6, Durability: &wal.Config{Dir: dir, SnapshotEvery: -1}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := open()
	for i := 0; i < 3; i++ { // three parked items of two readings
		if err := n.Ingest(typedBatch("traffic", t0.Add(time.Duration(i)*time.Second), float64(10*i+1), float64(10*i+2))); err != nil {
			t.Fatal(err)
		}
		_ = n.Flush(context.Background())
	}
	handoff := make(chan error, 1)
	go func() { handoff <- n.MigrateOut(context.Background(), "traffic", "fog1/d01-s02") }()
	<-entered // the handoff claims every queued item
	vals := []float64{101, 102, 103, 104, 105, 106, 107, 108}
	if err := n.Ingest(typedBatch("traffic", t0.Add(time.Minute), vals...)); err != nil { // past the bound: trims behind the claim
		t.Fatal(err)
	}
	close(release)
	if err := <-handoff; err != nil {
		t.Fatal(err)
	}
	if got := n.ShedReadings(); got != 2 {
		t.Fatalf("shed %d readings, want 2 cut from the pending buffer", got)
	}
	live := viewOf(n)
	n.Discard()
	re := open()
	defer re.Discard()
	if d := live.diff(viewOf(re)); d != "" {
		t.Fatalf("the recovered node differs from the live one:\n%s", d)
	}
}

// TestReplayLateReadingAfterHarvest: a flush's harvest advances each
// subscription's watermark, and a later reading older than it folds
// forward into the watermark's window. Replay must run the harvest at
// the same log position, or the late reading maps to its own window on
// recovery and seals an alert that never fired.
func TestReplayLateReadingAfterHarvest(t *testing.T) {
	net := &replayNet{nodes: map[string]transport.Handler{}} // parent down: the pushes stay queued
	clock := sim.NewVirtualClock(t0)
	dir := t.TempDir()
	open := func() *Node {
		n, err := New(Config{Spec: fog1Spec(), Clock: clock, Transport: net, Codec: aggregate.CodecNone,
			Durability: &wal.Config{Dir: dir, SnapshotEvery: -1}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := open()
	if err := n.Subscribe(cq.Subscription{ID: "hot", TypeName: "traffic", Kind: cq.KindThreshold,
		Window: 10 * time.Second, Predicate: cq.PredAbove, Threshold: 50}); err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(typedBatch("traffic", clock.Now(), 70)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	_ = n.Flush(context.Background()) // harvests past the first window
	if err := n.Ingest(typedBatch("traffic", clock.Now().Add(-50*time.Second), 80)); err != nil {
		t.Fatal(err)
	}
	live := viewOf(n)
	n.Discard()
	re := open()
	defer re.Discard()
	if d := live.diff(viewOf(re)); d != "" {
		t.Fatalf("the recovered node differs from the live one:\n%s", d)
	}
}
