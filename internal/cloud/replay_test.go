package cloud

// The differential proof that the cloud's replay is its live path:
// seeded random sequences of accepts run on a durable cloud, which is
// then rebuilt from its data dir without Close; the rebuilt cloud must
// hold exactly the live one's archive, series, alert instances,
// degraded windows and replay marks.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// cloudView is a cloud's preserved state in canonical form.
type cloudView struct {
	Archive  []string
	Series   map[string][]string
	Alerts   []protocol.Alert
	Degraded map[string][]aggregate.WindowSummary
	Marks    map[string][]uint64
}

func viewOfCloud(n *Node, types []string) cloudView {
	v := cloudView{Series: map[string][]string{}, Degraded: map[string][]aggregate.WindowSummary{},
		Alerts: n.AlertInstances(), Marks: n.replay.Dump()}
	key := func(r *model.Reading) string {
		return fmt.Sprintf("%s|%d|%v|%s", r.SensorID, r.Time.UnixNano(), r.Value, r.Unit)
	}
	for _, rec := range n.archive.Records() {
		s := strings.Join(rec.Provenance, ">") + " " + rec.Batch.TypeName
		for i := range rec.Batch.Readings {
			s += " " + key(&rec.Batch.Readings[i])
		}
		v.Archive = append(v.Archive, s)
	}
	for _, typ := range types {
		for _, r := range n.Historical(typ, time.Unix(0, 0), c0.Add(1000*time.Hour)) {
			v.Series[typ] = append(v.Series[typ], key(&r))
		}
		if w := n.DegradedSummaries(typ); len(w) > 0 {
			v.Degraded[typ] = w
		}
	}
	return v
}

func (v cloudView) diff(w cloudView) string {
	var out []string
	rv, rw := reflect.ValueOf(v), reflect.ValueOf(w)
	for i := 0; i < rv.NumField(); i++ {
		if a, b := rv.Field(i).Interface(), rw.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			out = append(out, fmt.Sprintf("%s:\n  live      %v\n  recovered %v", rv.Type().Field(i).Name, a, b))
		}
	}
	return strings.Join(out, "\n")
}

// TestReplayMatchesLive drives seeded random sequences of preserves
// (sequenced, relayed, unsequenced and retried), alert pushes (new,
// retried, and an instance again under a fresh identity), summary
// pushes, expires and checkpoints on a durable cloud, rebuilds it from
// its data dir without Close after each of two rounds, and requires
// the rebuilt cloud to equal the live one.
func TestReplayMatchesLive(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { cloudReplayMatchesLive(t, seed) })
	}
}

func cloudReplayMatchesLive(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	clock := sim.NewVirtualClock(c0)
	dir := t.TempDir()
	// A small memtable on some seeds flushes segments mid-sequence, so
	// replay also meets preserves the segments already hold.
	var storage *segment.Options
	if rng.Intn(2) == 0 {
		storage = &segment.Options{MemtableBytes: 4 << 10}
	}
	open := func() *Node {
		n, err := New(Config{ID: "cloud", Clock: clock, Storage: storage,
			Durability: &wal.Config{Dir: dir, SnapshotEvery: -1}})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		return n
	}
	n := open()
	types := []string{"traffic", "noise_level"}
	origins := []string{"fog2/d01", "fog2/d02"}
	seqs := map[string]uint64{}
	var sent []transport.Message
	var fired []protocol.Alert
	handle := func(msg transport.Message) {
		sent = append(sent, msg)
		if _, err := n.Handle(ctx, msg); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, msg.Kind, err)
		}
	}
	for round := 0; round < 2; round++ {
		for op := 0; op < 100; op++ {
			clock.Advance(time.Duration(rng.Intn(90)) * time.Second)
			typ, origin := types[rng.Intn(len(types))], origins[rng.Intn(len(origins))]
			switch k := rng.Intn(100); {
			case k < 35: // a sequenced batch, direct or relayed by the sibling
				vals := make([]float64, 1+rng.Intn(5))
				for i := range vals {
					vals[i] = float64(rng.Intn(1000))
				}
				seqs[origin]++
				payload, err := (&protocol.Sealer{}).SealSeq(nil, cloudBatch(origin, typ, clock.Now(), vals...), aggregate.CodecNone, seqs[origin])
				if err != nil {
					t.Fatal(err)
				}
				from := origins[rng.Intn(len(origins))] // the sibling relays half the time
				handle(transport.Message{From: from, To: "cloud", Kind: transport.KindBatch, Payload: payload})
			case k < 45: // an unsequenced preserve
				if err := n.Preserve(cloudBatch(origin, typ, clock.Now(), float64(rng.Intn(1000))), origin); err != nil {
					t.Fatal(err)
				}
			case k < 55: // a retry of an earlier delivery
				if len(sent) > 0 {
					if _, err := n.Handle(ctx, sent[rng.Intn(len(sent))]); err != nil {
						t.Fatal(err)
					}
				}
			case k < 70: // an alert push; sometimes an instance again under a fresh identity
				seqs[origin]++
				a := protocol.Alert{SubID: fmt.Sprintf("s%d", rng.Intn(3)), FiredBy: "fog1/" + origin, Kind: protocol.AlertKindWindow,
					StartUnix: clock.Now().Truncate(time.Minute).UnixNano(), Summary: aggregate.Summary{Count: 1, Sum: 2, Min: 2, Max: 2}}
				a.EndUnix = a.StartUnix + int64(time.Minute)
				if len(fired) > 0 && rng.Intn(3) == 0 {
					a = fired[rng.Intn(len(fired))]
				}
				fired = append(fired, a)
				payload, err := protocol.EncodeAlertPush(&protocol.AlertPush{Origin: origin, Seq: seqs[origin], TypeName: typ,
					Category: model.CategoryUrban.String(), Alerts: []protocol.Alert{a}})
				if err != nil {
					t.Fatal(err)
				}
				handle(transport.Message{From: origin, To: "cloud", Kind: transport.KindAlertPush, Payload: payload})
			case k < 82: // a degraded summary push
				seqs[origin]++
				start := clock.Now().Truncate(time.Minute).UnixNano()
				payload, err := protocol.EncodeJSON(protocol.SummaryPush{Origin: origin, Seq: seqs[origin], TypeName: typ,
					Category: model.CategoryUrban.String(), Windows: []protocol.SummaryWindow{{StartUnix: start, EndUnix: start + int64(time.Minute),
						Summary: aggregate.Summary{Count: int64(1 + rng.Intn(9)), Sum: float64(rng.Intn(100)), Min: 1, Max: 9}}}})
				if err != nil {
					t.Fatal(err)
				}
				handle(transport.Message{From: origin, To: "cloud", Kind: transport.KindSummaryPush, Payload: payload})
			case k < 90:
				if _, err := n.Expire(clock.Now().Add(-time.Duration(20+rng.Intn(40)) * time.Minute)); err != nil {
					t.Fatal(err)
				}
			default:
				if err := n.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		live := viewOfCloud(n, types)
		n.Discard()
		n = open()
		if d := live.diff(viewOfCloud(n, types)); d != "" {
			t.Fatalf("seed %d round %d: the recovered cloud differs from the live one:\n%s", seed, round, d)
		}
	}
	n.Discard()
}
