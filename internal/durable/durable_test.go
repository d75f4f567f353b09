package durable

import (
	"errors"
	"testing"
	"time"

	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
)

// ramCore opens the core of a node without a data dir: no journal, an
// in-RAM store.
func ramCore(t *testing.T) (*Core, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	c, err := Open(nil, nil, time.Hour, reg, "n.", protocol.NewReplayFilter(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Journal != nil {
		t.Fatal("a core without a journal config opened a journal")
	}
	return c, reg
}

// TestAcceptDuplicateSkipsApply: a delivery that landed is
// acknowledged on its second copy without apply running, and the copy
// is counted in <prefix>ingest.duplicates.
func TestAcceptDuplicateSkipsApply(t *testing.T) {
	c, reg := ramCore(t)
	applied := 0
	apply := func() error { applied++; return nil }
	for i := 0; i < 3; i++ {
		ack, err := c.Accept("fog1/a", 7, apply)
		if err != nil || string(ack) != "ok" {
			t.Fatalf("copy %d: ack %q, err %v", i, ack, err)
		}
	}
	if applied != 1 {
		t.Errorf("apply ran %d times, want once", applied)
	}
	if got := reg.Counter("n.ingest.duplicates").Value(); got != 2 || c.Duplicates() != 2 {
		t.Errorf("duplicates = %d (Duplicates() %d), want 2", got, c.Duplicates())
	}
	// The same sequence from another origin is another delivery.
	if _, err := c.Accept("fog1/b", 7, apply); err != nil || applied != 2 {
		t.Errorf("another origin's seq 7: applied %d, err %v", applied, err)
	}
}

// TestAcceptFailedApplyStaysUnmarked: a delivery whose apply fails is
// refused and not marked, so its retry applies (and is not counted as
// a duplicate).
func TestAcceptFailedApplyStaysUnmarked(t *testing.T) {
	c, _ := ramCore(t)
	refused := errors.New("refused")
	if _, err := c.Accept("fog1/a", 3, func() error { return refused }); !errors.Is(err, refused) {
		t.Fatalf("failed apply: err = %v, want it returned", err)
	}
	applied := false
	if _, err := c.Accept("fog1/a", 3, func() error { applied = true; return nil }); err != nil || !applied {
		t.Fatalf("retry after a failed apply: applied %v, err %v", applied, err)
	}
	if c.Duplicates() != 0 {
		t.Errorf("duplicates = %d, want 0", c.Duplicates())
	}
}

// TestAcceptSeqZeroAlwaysApplies: seq 0 is an unidentified delivery,
// never deduplicated.
func TestAcceptSeqZeroAlwaysApplies(t *testing.T) {
	c, _ := ramCore(t)
	applied := 0
	for i := 0; i < 3; i++ {
		if _, err := c.Accept("fog1/a", 0, func() error { applied++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if applied != 3 || c.Duplicates() != 0 {
		t.Errorf("seq 0: applied %d times with %d duplicates, want 3 and 0", applied, c.Duplicates())
	}
}

// TestRAMCoreNilJournal: on a core without a journal every journal
// method is safe on the nil Journal — writes succeed without writing,
// Apply only applies — and the core's own methods store in RAM and do
// nothing durable.
func TestRAMCoreNilJournal(t *testing.T) {
	c, reg := ramCore(t)
	j := c.Journal
	fill := func(buf []byte) []byte { return append(buf, 1) }
	if err := j.Write(fill); err != nil {
		t.Errorf("Write: %v", err)
	}
	if err := j.WritePayload(2, []byte("doc")); err != nil {
		t.Errorf("WritePayload: %v", err)
	}
	j.Note(fill)
	if got := reg.Counter("n.journal.errors").Value(); got != 0 {
		t.Errorf("journal.errors = %d, want 0", got)
	}
	applied := false
	if err := j.Apply(fill, func() error { applied = true; return nil }); err != nil || !applied {
		t.Errorf("Apply: applied %v, err %v", applied, err)
	}
	if n, due := j.CheckpointDue(); n != 0 || due {
		t.Errorf("CheckpointDue = %d, %v, want 0, false", n, due)
	}
	if err := j.Checkpoint(func() ([]byte, error) { t.Error("Checkpoint encoded a snapshot"); return nil, nil }); err != nil {
		t.Errorf("Checkpoint: %v", err)
	}

	at := time.Unix(0, 1496275200000000000)
	b := &model.Batch{NodeID: "n", TypeName: "traffic", Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{SensorID: "s", TypeName: "traffic", Category: model.CategoryUrban, Time: at, Value: 1}}}
	if err := c.Store(b); err != nil {
		t.Fatal(err)
	}
	if got := c.Series.QueryRange("traffic", at, at); len(got) != 1 {
		t.Errorf("stored batch reads back %d readings, want 1", len(got))
	}
	if err := c.Recover(Recovery{}); err != nil {
		t.Errorf("Recover: %v", err)
	}
	if err := c.Checkpoint(func(dst []byte) ([]byte, error) { t.Error("Core.Checkpoint encoded a body"); return dst, nil }); err != nil {
		t.Errorf("Core.Checkpoint: %v", err)
	}
	c.Discard()
	closed := false
	if err := c.Close(func() error { closed = true; return nil }); err != nil || !closed {
		t.Errorf("Close: checkpoint ran %v, err %v", closed, err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("Journal.Close: %v", err)
	}
}
