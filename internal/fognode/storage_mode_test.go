package fognode

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/wal"
)

func openNodeAt(dir string, segments bool) (*Node, error) {
	cfg := Config{
		Spec:       fog1Spec(),
		Clock:      sim.NewVirtualClock(t0),
		Codec:      aggregate.CodecNone,
		Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
	}
	if segments {
		cfg.Storage = &segment.Options{Dir: filepath.Join(dir, "store")}
	}
	return New(cfg)
}

// TestStorageModeSwitchFailsLoudly: recovery leaves the journal's
// stored batches out of a segment-backed store ("Open recovered
// them"), which is only true of a store that lived beside the
// journal. A journal-only directory reopened with a segment store —
// or one whose store/ was deleted — used to boot with the readings
// buffered for the parent and none of them readable locally.
func TestStorageModeSwitchFailsLoudly(t *testing.T) {
	for _, written := range []bool{false, true} {
		dir := t.TempDir()
		n, err := openNodeAt(dir, written)
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Ingest(typedBatch("traffic", t0, 1, 2, 3))
		_ = n.Ingest(typedBatch("traffic", t0.Add(time.Second), 4))
		n.Discard() // crash: the batches are in the journal tail, undelivered

		// The mode it was written in reopens and serves the readings.
		re, err := openNodeAt(dir, written)
		if err != nil {
			t.Fatalf("segments=%v: matching-mode reopen: %v", written, err)
		}
		if got := len(re.Query("traffic", t0, t0.Add(time.Minute))); got != 4 {
			t.Errorf("segments=%v: matching-mode reopen serves %d readings, want 4", written, got)
		}
		re.Discard()

		store := filepath.Join(dir, "store")
		if err := os.RemoveAll(store); err != nil { // no-op for the journal-only life
			t.Fatal(err)
		}
		_, err = openNodeAt(dir, true)
		if err == nil {
			t.Fatalf("segments=%v: a journal without its segment store must be refused", written)
		}
		for _, want := range []string{"storage mode mismatch", dir, "written without a segment store"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("segments=%v: error %q does not name %q", written, err, want)
			}
		}
		if _, err := os.Stat(store); !os.IsNotExist(err) {
			t.Errorf("segments=%v: the refused boot left a store/ behind (stat err %v)", written, err)
		}
	}
}
