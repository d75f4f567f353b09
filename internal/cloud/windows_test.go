package cloud

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// summaryPushMsg is a fog2 node's summary push of one traffic window
// starting at c0.
func summaryPushMsg(t *testing.T, seq uint64, s aggregate.Summary) transport.Message {
	t.Helper()
	payload, err := protocol.EncodeJSON(protocol.SummaryPush{
		Origin: "fog2/d01", Seq: seq, TypeName: "traffic", Category: "urban",
		Windows: []protocol.SummaryWindow{{StartUnix: c0.UnixNano(), EndUnix: c0.Add(time.Minute).UnixNano(), Summary: s}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return transport.Message{From: "fog2/d01", To: "cloud", Kind: transport.KindSummaryPush, Payload: payload}
}

// TestCloudRecoveryKeepsDegradedWindows: a durable cloud acknowledges
// two summary pushes of one type that share a window start, crashes
// and reopens on the same dir. The held windows come back equal
// whether the pushes sit in the log tail, straddle a checkpoint or sit
// in the snapshot, and a retry of the second push is acknowledged as a
// duplicate that leaves the totals unchanged.
func TestCloudRecoveryKeepsDegradedWindows(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name            string
		checkpointAfter int // pushes acknowledged before the checkpoint; 0 = none
	}{
		{"no checkpoint", 0},
		{"checkpoint between the pushes", 1},
		{"checkpoint after both", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := newDurableCloud(t, dir)
			msgs := []transport.Message{
				summaryPushMsg(t, 11, aggregate.Summary{Count: 3, Sum: 6.25, Min: 1, Max: 3}),
				summaryPushMsg(t, 12, aggregate.Summary{Count: 2, Sum: 9.5, Min: 4, Max: 5.5}),
			}
			for i, msg := range msgs {
				if _, err := n.Handle(ctx, msg); err != nil {
					t.Fatal(err)
				}
				if i+1 == tc.checkpointAfter {
					if err := n.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := n.DegradedSummaries("traffic")
			if len(want) != 1 || want[0].Summary.Count != 5 {
				t.Fatalf("before the crash: windows %+v, want one window of 5 readings", want)
			}

			n.Discard()
			re := newDurableCloud(t, dir)
			if got := re.DegradedSummaries("traffic"); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered windows %+v, want %+v", got, want)
			}
			if _, err := re.Handle(ctx, msgs[1]); err != nil {
				t.Fatal(err)
			}
			if got := re.DuplicateBatches(); got != 1 {
				t.Errorf("retry of the second push: %d duplicates suppressed, want 1", got)
			}
			if got := re.DegradedSummaries("traffic"); !reflect.DeepEqual(got, want) {
				t.Errorf("windows after the retry %+v, want %+v", got, want)
			}
		})
	}
}

// TestSummaryPushRefusedWhenUnjournaled: a push the journal cannot
// take is refused, so the sender retries, and nothing is folded.
func TestSummaryPushRefusedWhenUnjournaled(t *testing.T) {
	n := newDurableCloud(t, t.TempDir())
	_ = n.dur.Journal.Close()
	if _, err := n.Handle(context.Background(), summaryPushMsg(t, 1, aggregate.Summary{Count: 1, Sum: 1, Min: 1, Max: 1})); err == nil {
		t.Fatal("a summary push the journal refused was acknowledged")
	}
	if got := n.DegradedSummaries("traffic"); len(got) != 0 {
		t.Errorf("refused push folded into %+v", got)
	}
}

// TestExpireOnClosedJournalDestroysNothing: a cutoff the journal
// cannot record must not destroy records in RAM that recovery would
// bring back; the automatic sweep counts the failure.
func TestExpireOnClosedJournalDestroysNothing(t *testing.T) {
	n := newDurableCloud(t, t.TempDir())
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	_ = n.dur.Journal.Close()
	destroyed, err := n.Expire(c0.Add(time.Hour))
	if err == nil || !strings.Contains(err.Error(), "journal closed") {
		t.Fatalf("Expire on a closed journal: %d destroyed, err %v; want the append error", destroyed, err)
	}
	if destroyed != 0 || n.Archive().Len() != 1 {
		t.Errorf("unjournaled expire destroyed %d records, archive holds %d, want 0 and 1", destroyed, n.Archive().Len())
	}
	if got := len(n.Historical("traffic", c0, c0.Add(time.Hour))); got != 2 {
		t.Errorf("series serves %d readings after the refused expire, want 2", got)
	}

	n.cfg.Retention = time.Minute
	n.expireTick = 1023
	n.maybeExpire()
	if got := n.cfg.Registry.Export().Counters["cloud.expire.errors"]; got != 1 {
		t.Errorf("cloud.expire.errors = %d after a refused sweep, want 1", got)
	}
}
