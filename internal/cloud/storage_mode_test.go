package cloud

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/wal"
)

func openCloudAt(dir string, segments bool) (*Node, error) {
	cfg := Config{
		ID: "cloud", Clock: sim.NewVirtualClock(c0),
		Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
	}
	if segments {
		cfg.Storage = &segment.Options{Dir: filepath.Join(dir, "store")}
	}
	return New(cfg)
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
		if !info.IsDir() {
			fmt.Fprintf(&b, "%s %d %s\n", path, info.Size(), info.ModTime())
		} else {
			fmt.Fprintln(&b, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStorageModeSwitchFailsLoudly: a cloud whose journal was written
// without a segment store must not come back with one. Recovery skips
// snapshot records for a segment-backed series ("Open recovered
// them"), so before the guard such a cloud held the whole archive and
// answered every range query empty.
func TestStorageModeSwitchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	n, err := openCloudAt(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0.Add(time.Duration(i)*time.Minute), 1, 2), "fog2/d01"); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil { // final checkpoint: the archive is in the snapshot
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	_, err = openCloudAt(dir, true)
	if err == nil {
		t.Fatal("a journal-only directory reopened with a segment store must be refused")
	}
	for _, want := range []string{"storage mode mismatch", dir, "written without a segment store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("the refused boot changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// The mode it was written in still opens, with the history intact.
	re, err := openCloudAt(dir, false)
	if err != nil {
		t.Fatalf("matching-mode reopen: %v", err)
	}
	if got := len(re.Historical("traffic", c0, c0.Add(time.Hour))); got != 6 {
		t.Errorf("matching-mode reopen serves %d readings, want 6", got)
	}
	_ = re.Close()
}

// TestDeletedStoreFailsLoudly: the same invariant catches a segment
// store that was removed from under its journal, and a matching-mode
// restart keeps passing it.
func TestDeletedStoreFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	n, err := openCloudAt(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2, 3), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openCloudAt(dir, true)
	if err != nil {
		t.Fatalf("matching-mode reopen: %v", err)
	}
	if got := len(re.Historical("traffic", c0, c0.Add(time.Hour))); got != 3 {
		t.Errorf("matching-mode reopen serves %d readings, want 3", got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.RemoveAll(filepath.Join(dir, "store")); err != nil {
		t.Fatal(err)
	}
	if _, err := openCloudAt(dir, true); err == nil || !strings.Contains(err.Error(), "storage mode mismatch") {
		t.Fatalf("a cloud whose store/ was deleted must be refused, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
		t.Errorf("the refused boot left a store/ behind (stat err %v)", err)
	}
}
