package fognode

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// switchParent is a parent endpoint that acknowledges while up, fails
// while down, and records the readings it acknowledged.
type switchParent struct {
	mu   sync.Mutex
	up   bool
	vals []float64
}

func (p *switchParent) network() *transport.SimNetwork {
	net := transport.NewSimNetwork()
	net.Register("fog2/d01", transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if !p.up {
			return nil, errors.New("parent down")
		}
		b, _, err := protocol.DecodeBatchPayload(msg.Payload)
		if err != nil {
			return nil, err
		}
		for _, r := range b.Readings {
			p.vals = append(p.vals, r.Value)
		}
		return []byte("ok"), nil
	}))
	return net
}

func openOneLogNode(t *testing.T, dir string, net transport.Transport) *Node {
	t.Helper()
	n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: net, Codec: aggregate.CodecNone,
		Durability: &wal.Config{Dir: dir, SnapshotEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// oneLogArrivals are the sequenced child deliveries of oneLogLife:
// the first before its checkpoint, the second in its log tail.
func oneLogArrivals(t *testing.T) []transport.Message {
	t.Helper()
	var msgs []transport.Message
	for i, v := range []float64{4, 8} {
		b := typedBatch("noise_level", t0.Add(time.Duration(i)*time.Minute), v)
		b.NodeID = "edge/e1"
		payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, transport.Message{From: "edge/e1", To: fog1Spec().ID, Kind: transport.KindBatch, Payload: payload})
	}
	return msgs
}

// writeOneLogLife lives the life that wrote testdata/one_log, the
// on-disk generation in which the journal is the segment store's log.
// Before the checkpoint: readings 1..3 ingested and 4 delivered by a
// child, the store flushed into one segment, both delivered upward,
// then 5 and 6 ingested. In the log tail: 7 ingested, 8 delivered by
// the child, and a flush that failed with the parent down. It ends
// with Discard.
func writeOneLogLife(t *testing.T, dir string) {
	t.Helper()
	parent := &switchParent{up: true}
	n := openOneLogNode(t, dir, parent.network())
	ctx := context.Background()
	arrivals := oneLogArrivals(t)
	if err := n.Ingest(typedBatch("traffic", t0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(ctx, arrivals[0]); err != nil {
		t.Fatal(err)
	}
	if err := n.store.(*segment.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(typedBatch("traffic", t0.Add(time.Minute), 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(typedBatch("traffic", t0.Add(2*time.Minute), 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(ctx, arrivals[1]); err != nil {
		t.Fatal(err)
	}
	parent.up = false
	if err := n.Flush(ctx); err == nil {
		t.Fatal("flush survived the parent outage")
	}
	n.Discard()
}

// TestOneLogDataDir opens testdata/one_log — a snapshot with the store
// section, a log tail and one flushed segment — and a directory the
// same life writes now, and checks each holds what that life held: the
// store across segment, section and tail, the two parked items, and
// the child's delivery marks; healed, it delivers exactly the parked
// readings.
func TestOneLogDataDir(t *testing.T) {
	fresh := t.TempDir()
	writeOneLogLife(t, fresh)
	golden := t.TempDir()
	if err := os.CopyFS(golden, os.DirFS(filepath.Join("testdata", "one_log"))); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"testdata/one_log": golden, "written now": fresh} {
		t.Run(name, func(t *testing.T) {
			parent := &switchParent{up: true}
			n := openOneLogNode(t, dir, parent.network())
			defer n.Discard()
			if got := n.store.(*segment.Store).SegmentCount(); got != 1 {
				t.Errorf("%d segments, want the one flushed", got)
			}
			if got := len(n.Query("traffic", t0, t0.Add(time.Hour))); got != 6 {
				t.Errorf("stored traffic = %d readings, want 6", got)
			}
			if got := len(n.Query("noise_level", t0, t0.Add(time.Hour))); got != 2 {
				t.Errorf("stored noise_level = %d readings, want 2", got)
			}
			if r, ok := n.Latest("traffic/0"); !ok || r.Value != 7 {
				t.Errorf("latest traffic/0 = %+v %v, want the tail's 7", r, ok)
			}
			if got, readings := n.PendingBatches(), n.PendingReadings(); got != 2 || readings != 4 {
				t.Errorf("%d delivery units of %d readings, want the 2 parked items of 4", got, readings)
			}
			for _, msg := range oneLogArrivals(t) {
				if _, err := n.Handle(context.Background(), msg); err != nil {
					t.Fatal(err)
				}
			}
			if got := n.DuplicateBatches(); got != 2 {
				t.Errorf("the child's deliveries again: %d duplicates, want 2", got)
			}
			if err := n.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			sort.Float64s(parent.vals)
			if want := []float64{5, 6, 7, 8}; !equalValues(parent.vals, want) {
				t.Errorf("healed parent received %v, want %v", parent.vals, want)
			}
		})
	}
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// journalLog is the path of dir's one journal log.
func journalLog(t *testing.T, dir string) string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("journal logs %v: %v", logs, err)
	}
	return logs[0]
}

// TestLogTailBehindFlushedSegments: segment flushes are synced, journal
// appends are not, so a machine crash can leave a log that ends behind
// the segments. The readings of the lost records stay in the segments;
// a batch accepted after that recovery must reach the store's range
// reads, also after a second crash — its op numbers above the
// segments, and the next recovery numbers it the same way.
func TestLogTailBehindFlushedSegments(t *testing.T) {
	dir := t.TempDir()
	parent := &switchParent{}
	n := openOneLogNode(t, dir, parent.network())
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	var cut int64
	for i := 1; i <= 10; i++ {
		if err := n.Ingest(typedBatch("traffic", at(i), float64(i))); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			fi, err := os.Stat(journalLog(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			cut = fi.Size()
		}
	}
	if err := n.store.(*segment.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	n.Discard()
	// A machine crash loses the appends the disk had not synced.
	if err := os.Truncate(journalLog(t, dir), cut); err != nil {
		t.Fatal(err)
	}

	n = openOneLogNode(t, dir, parent.network())
	if err := n.Ingest(typedBatch("traffic", at(11), 11)); err != nil {
		t.Fatal(err)
	}
	n.Discard()

	n = openOneLogNode(t, dir, parent.network())
	defer n.Discard()
	var got []float64
	for _, r := range n.Query("traffic", t0, at(12)) {
		got = append(got, r.Value)
	}
	sort.Float64s(got)
	if want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}; !equalValues(got, want) {
		t.Errorf("stored %v, want %v", got, want)
	}
	if got := n.PendingReadings(); got != 6 {
		t.Errorf("%d readings pending, want the 6 the journal kept", got)
	}
}
