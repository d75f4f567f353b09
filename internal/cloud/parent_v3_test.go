package cloud

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// parentV3Life is the life that wrote testdata/parent_v3: the
// deliveries before its checkpoint, the deliveries after it, and the
// expire cutoff that followed them (it destroys the first, two-day-old
// batch). The directory was written by the commit before the cloud
// journaled summary pushes, with snapshot version 3, and closed with
// Discard.
func parentV3Life(t *testing.T) (snapshotted, tail []transport.Message, cutoff time.Time) {
	t.Helper()
	batch := func(origin string, seq uint64, b *model.Batch) transport.Message {
		payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, seq)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{From: origin, To: "cloud", Kind: transport.KindBatch, Payload: payload}
	}
	alert := func(seq uint64, sub string, start time.Time) transport.Message {
		payload, err := protocol.EncodeAlertPush(&protocol.AlertPush{
			Origin: "fog2/d01", Seq: seq, TypeName: "traffic", Category: "urban",
			Alerts: []protocol.Alert{{
				SubID: sub, FiredBy: "fog1/d01-s01", Kind: protocol.AlertKindWindow,
				StartUnix: start.UnixNano(), EndUnix: start.Add(time.Minute).UnixNano(),
				Summary: aggregate.Summary{Count: 2, Sum: 3, Min: 1, Max: 2}, Value: 1.5,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{From: "fog2/d01", To: "cloud", Kind: transport.KindAlertPush, Payload: payload}
	}
	snapshotted = []transport.Message{
		batch("fog2/d01", 1, cloudBatch("fog2/d01", "traffic", c0.Add(-48*time.Hour), 9)),
		batch("fog2/d01", 2, cloudBatch("fog2/d01", "traffic", c0, 1, 2, 3)),
		alert(3, "w1", c0),
	}
	tail = []transport.Message{
		batch("fog2/d02", 5, cloudBatch("fog2/d02", "noise_level", c0.Add(time.Minute), 4)),
		alert(4, "w1", c0.Add(time.Minute)),
	}
	return snapshotted, tail, c0.Add(-24 * time.Hour)
}

// TestParentV3DataDir opens a durable cloud dir written before the
// cloud journaled summary pushes: a version-3 snapshot with preserves
// and an alert push, then a tail with a preserve, an alert push and an
// expire record. It serves what that life held, with no degraded
// windows, still refuses that life's deliveries as duplicates, and
// keeps windows accepted from here on across a restart.
func TestParentV3DataDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent_v3"))); err != nil {
		t.Fatal(err)
	}
	snapshotted, tail, _ := parentV3Life(t)

	n := newDurableCloud(t, dir)
	if got := n.Archive().Len(); got != 2 {
		t.Errorf("archive holds %d records, want 2 (the expired one stays destroyed)", got)
	}
	if got := n.Historical("traffic", c0.Add(-time.Hour), c0.Add(time.Hour)); len(got) != 3 {
		t.Errorf("historical traffic = %d readings, want 3", len(got))
	}
	if got := n.Historical("noise_level", c0, c0.Add(time.Hour)); len(got) != 1 || got[0].Value != 4 {
		t.Errorf("historical noise_level = %+v, want the tail's one reading", got)
	}
	alerts := n.AlertInstances()
	if len(alerts) != 2 || alerts[0].StartUnix != c0.UnixNano() || alerts[1].StartUnix != c0.Add(time.Minute).UnixNano() {
		t.Errorf("alert instances = %+v, want the snapshot's and the tail's", alerts)
	}
	if got := n.DegradedSummaries("traffic"); len(got) != 0 {
		t.Errorf("degraded windows = %+v, want none", got)
	}
	for _, msg := range append(snapshotted, tail...) {
		if _, err := n.Handle(ctx, msg); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.DuplicateBatches(); got != 5 {
		t.Errorf("the parent life's deliveries again: %d duplicates, want 5", got)
	}
	if got := n.Archive().Len(); got != 2 {
		t.Errorf("archive holds %d records after the retries, want 2", got)
	}

	if _, err := n.Handle(ctx, summaryPushMsg(t, 9, aggregate.Summary{Count: 2, Sum: 3, Min: 1, Max: 2})); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	re := newDurableCloud(t, dir)
	if got := re.DegradedSummaries("traffic"); len(got) != 1 || got[0].Summary.Count != 2 {
		t.Errorf("windows after a version-4 checkpoint of the upgraded dir = %+v, want one of 2 readings", got)
	}
	if got := re.Archive().Len(); got != 2 {
		t.Errorf("archive after the upgrade restart holds %d records, want 2", got)
	}
}
