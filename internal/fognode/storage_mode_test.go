package fognode

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/durable"
	"f2c/internal/model"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/wal"
)

// openNodeAt opens a durable fog1 on dir: its journal in dir, its
// segment store in dir/store.
func openNodeAt(dir string) (*Node, error) {
	return New(Config{
		Spec:       fog1Spec(),
		Clock:      sim.NewVirtualClock(t0),
		Codec:      aggregate.CodecNone,
		Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
	})
}

// dirListing names every file under dir with its size and
// modification time: equal listings mean nothing was written.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d %s\n", path, info.Size(), info.ModTime())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// expectRefused opens a fog1 on dir, expects the open to be refused
// with an error naming every want, and the directory unchanged.
func expectRefused(t *testing.T, dir string, want ...string) {
	t.Helper()
	before := dirListing(t, dir)
	_, err := openNodeAt(dir)
	if err == nil {
		t.Fatalf("%s opened, want it refused", dir)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not name %q", err, w)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("the refused boot changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestStorageModeSwitchFailsLoudly: the journal is the segment store's
// log, so a store without a journal is refused at construction, and a
// checkpoint cut after a store flush relies on the flushed segments: a
// directory whose store/ was deleted after that is refused, untouched,
// while the directory as written reopens and serves its readings.
func TestStorageModeSwitchFailsLoudly(t *testing.T) {
	storeOnly := Config{Spec: fog1Spec(), Storage: &segment.Options{Dir: filepath.Join(t.TempDir(), "store")}}
	if _, err := New(storeOnly); !errors.Is(err, durable.ErrStorageMode) {
		t.Errorf("a segment store without a journal: %v, want ErrStorageMode", err)
	}

	dir := t.TempDir()
	n, err := openNodeAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2, 3))
	if err := n.store.(*segment.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0.Add(time.Second), 4))
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.Discard()

	re, err := openNodeAt(dir)
	if err != nil {
		t.Fatalf("reopen as written: %v", err)
	}
	if got := len(re.Query("traffic", t0, t0.Add(time.Minute))); got != 4 {
		t.Errorf("reopen as written serves %d readings, want 4", got)
	}
	re.Discard()

	store := filepath.Join(dir, "store")
	if err := os.RemoveAll(store); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, dir, dir, "deleted or replaced")
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("the refused boot left a store/ behind (stat err %v)", err)
	}
}

// TestStoreHoldsWhatTheJournalAccepted: a segment-backed fog1 takes
// two readings through Ingest and three more through enqueue alone —
// the acceptance gate, which once journaled readings the store had
// not yet appended — then crashes, with or without a checkpoint cut
// first. The store is refilled from the journal: it holds all five,
// as the pending buffer does.
func TestStoreHoldsWhatTheJournalAccepted(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		n, err := openNodeAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Ingest(typedBatch("traffic", t0, 1, 2)); err != nil {
			t.Fatal(err)
		}
		b := typedBatch("traffic", t0.Add(time.Second), 3, 4, 5)
		if err := n.enqueue(n.shardFor(b.TypeName), b, "", 0); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := n.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		n.Discard()

		re, err := openNodeAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := re.PendingReadings(); got != 5 {
			t.Errorf("checkpoint=%v: %d readings pending delivery, want 5", checkpoint, got)
		}
		if got := re.Status().StoredReadings; got != 5 {
			t.Errorf("checkpoint=%v: %d readings stored, want 5", checkpoint, got)
		}
		if got := len(re.Query("traffic", t0, t0.Add(time.Minute))); got != 5 {
			t.Errorf("checkpoint=%v: range read = %d readings, want 5", checkpoint, got)
		}
		re.Discard()
	}
}

// TestPreV3MigrationChunkRefused: a log tail left by a crash can hold
// an absorbed migration chunk in the version-2 wire, which split the
// moved items into three sections; this build reads version 3 only. The
// node refuses the directory untouched, naming the chunk's version and
// the way out. The chunk is a golden payload the version-2 encoder
// wrote.
func TestPreV3MigrationChunkRefused(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "protocol", "testdata", "migrate_v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := openNodeAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.Ingest(typedBatch("traffic", t0, 1, 2))
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.Discard()

	st, err := wal.Open(wal.Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(wal.AppendBytes([]byte{recMigrateIn}, golden)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, dir, "migration chunk version 2", "previous binary", "refused, left as it is")
}

// TestRefusedRecoveryWritesNothing: replay hands each batch record to
// the store as it reads it, so a log with many batches ahead of a
// record it refuses (here a retired type 3) fills a small memtable
// before the refusal. The store's flusher is held until recovery
// succeeds: the refused open writes no segment and no manifest.
func TestRefusedRecoveryWritesNothing(t *testing.T) {
	dir := t.TempDir()
	open := func(storage segment.Options) (*Node, error) {
		return New(Config{
			Spec:       fog1Spec(),
			Clock:      sim.NewVirtualClock(t0),
			Codec:      aggregate.CodecNone,
			Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
			Storage:    &storage,
		})
	}
	n, err := open(segment.Options{NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 50 {
		if err := n.Ingest(typedBatch("traffic", t0.Add(time.Duration(i)*time.Second), 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	n.Discard()

	st, err := wal.Open(wal.Config{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	if _, err := open(segment.Options{MemtableBytes: 1}); err == nil || !strings.Contains(err.Error(), "record type 3") {
		t.Fatalf("open = %v, want the retired record refused", err)
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("the refused boot changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestUnwireableStringsRefused: the journal logs accepted batches as
// the text wire, which cannot carry ';' or a line break in a string
// field. A durable node must refuse such a batch rather than ack it:
// acked, its record would refuse the dir at the next open, or reopen
// with the string altered.
func TestUnwireableStringsRefused(t *testing.T) {
	dir := t.TempDir()
	n, err := openNodeAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range []func(b *model.Batch){
		func(b *model.Batch) { b.Readings[0].SensorID = "a;b" },
		func(b *model.Batch) { b.Readings[0].SensorID = "x\ny" },
		func(b *model.Batch) { b.Readings[0].SensorID = "\nlead" },
		func(b *model.Batch) { b.Readings[0].Unit = "u\r" },
		func(b *model.Batch) { b.NodeID = "edge;1" },
		func(b *model.Batch) {
			b.TypeName = "traffic\n"
			for i := range b.Readings {
				b.Readings[i].TypeName = b.TypeName
			}
		},
	} {
		b := typedBatch("traffic", t0, 1, 2)
		bad(b)
		if err := n.Ingest(b); err == nil {
			t.Errorf("batch %d acked", i)
		}
	}
	if err := n.Ingest(typedBatch("traffic", t0, 3)); err != nil {
		t.Fatal(err)
	}
	n.Discard()
	re, err := openNodeAt(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Discard()
	if got := pendingValues(re, "traffic"); len(got) != 1 || got[0] != 3 {
		t.Errorf("reopened pending values %v, want only the good reading", got)
	}
}
