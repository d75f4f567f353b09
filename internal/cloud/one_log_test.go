package cloud

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/transport"
)

// oneLogLife is the life that wrote testdata/one_log, the on-disk
// generation in which the journal is the segment store's log: the
// deliveries before its checkpoint (a store flush falls after the
// first), and the deliveries of its log tail. The life ended with
// Discard, so the tail's preserve is in no segment and no section.
func oneLogLife(t *testing.T) (flushed, snapshotted, tail []transport.Message) {
	t.Helper()
	batch := func(origin string, seq uint64, typ string, at time.Time, vals ...float64) transport.Message {
		payload, err := (&protocol.Sealer{}).SealSeq(nil, cloudBatch(origin, typ, at, vals...), aggregate.CodecNone, seq)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{From: origin, To: "cloud", Kind: transport.KindBatch, Payload: payload}
	}
	alert := func(seq uint64, start time.Time) transport.Message {
		payload, err := protocol.EncodeAlertPush(&protocol.AlertPush{
			Origin: "fog2/d01", Seq: seq, TypeName: "traffic", Category: "urban",
			Alerts: []protocol.Alert{{
				SubID: "w1", FiredBy: "fog1/d01-s01", Kind: protocol.AlertKindWindow,
				StartUnix: start.UnixNano(), EndUnix: start.Add(time.Minute).UnixNano(),
				Summary: aggregate.Summary{Count: 2, Sum: 3, Min: 1, Max: 2}, Value: 1.5,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{From: "fog2/d01", To: "cloud", Kind: transport.KindAlertPush, Payload: payload}
	}
	flushed = []transport.Message{batch("fog2/d01", 1, "traffic", c0, 1, 2, 3)}
	snapshotted = []transport.Message{
		batch("fog2/d01", 2, "traffic", c0.Add(time.Minute), 4, 5),
		alert(3, c0),
		summaryPushMsg(t, 4, aggregate.Summary{Count: 2, Sum: 3, Min: 1, Max: 2}),
	}
	tail = []transport.Message{
		batch("fog2/d02", 5, "noise_level", c0.Add(2*time.Minute), 6),
		alert(6, c0.Add(time.Minute)),
		summaryPushMsg(t, 7, aggregate.Summary{Count: 1, Sum: 4, Min: 4, Max: 4}),
	}
	return flushed, snapshotted, tail
}

// writeOneLogLife lives oneLogLife on dir.
func writeOneLogLife(t *testing.T, dir string) {
	t.Helper()
	flushed, snapshotted, tail := oneLogLife(t)
	n, err := openCloudAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	handle := func(msgs []transport.Message) {
		for _, msg := range msgs {
			if _, err := n.Handle(context.Background(), msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	handle(flushed)
	if err := n.series.(*segment.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	handle(snapshotted)
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	handle(tail)
	n.Discard()
}

// TestOneLogDataDir opens testdata/one_log — a snapshot with the store
// section, a log tail and one flushed segment — and a directory the
// same life writes now, and checks each holds what that life was
// acknowledged: the archive, the series across segment, section and
// tail, the alerts and windows, and its deliveries refused as
// duplicates.
func TestOneLogDataDir(t *testing.T) {
	fresh := t.TempDir()
	writeOneLogLife(t, fresh)
	golden := t.TempDir()
	if err := os.CopyFS(golden, os.DirFS(filepath.Join("testdata", "one_log"))); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"testdata/one_log": golden, "written now": fresh} {
		t.Run(name, func(t *testing.T) {
			n := newDurableCloud(t, dir)
			if got := n.series.(*segment.Store).SegmentCount(); got != 1 {
				t.Errorf("%d segments, want the one flushed", got)
			}
			if got := n.Archive().Len(); got != 3 {
				t.Errorf("archive holds %d records, want 3", got)
			}
			traffic := n.Historical("traffic", c0.Add(-time.Hour), c0.Add(time.Hour))
			if len(traffic) != 5 || traffic[0].Value != 1 || traffic[4].Value != 5 {
				t.Errorf("historical traffic = %+v, want 1..5 from the segment and the section", traffic)
			}
			if got := n.Historical("noise_level", c0, c0.Add(time.Hour)); len(got) != 1 || got[0].Value != 6 {
				t.Errorf("historical noise_level = %+v, want the tail's one reading", got)
			}
			if r, ok := n.Latest("traffic/0"); !ok || r.Value != 4 {
				t.Errorf("latest traffic/0 = %+v %v, want the section's 4", r, ok)
			}
			if got := n.AlertInstances(); len(got) != 2 {
				t.Errorf("alert instances = %+v, want the snapshot's and the tail's", got)
			}
			if got := n.DegradedSummaries("traffic"); len(got) != 1 || got[0].Summary.Count != 3 {
				t.Errorf("degraded windows = %+v, want one of 3 readings", got)
			}
			flushed, snapshotted, tail := oneLogLife(t)
			for _, msg := range append(append(flushed, snapshotted...), tail...) {
				if _, err := n.Handle(context.Background(), msg); err != nil {
					t.Fatal(err)
				}
			}
			if got := n.DuplicateBatches(); got != 7 {
				t.Errorf("the life's deliveries again: %d duplicates, want 7", got)
			}
			if got := n.Status().StoredReadings; got != 6 {
				t.Errorf("stored readings after the retries = %d, want 6", got)
			}
		})
	}
}
