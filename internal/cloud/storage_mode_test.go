package cloud

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2c/internal/wal"
)

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

// TestStorageModeSwitchFailsLoudly: a cloud directory written
// journal-only — testdata/journal_only, a snapshot of three batches
// plus a tail of two, written by the last commit that could build
// such a cloud — must not boot in the one durable mode. Recovery
// skips snapshot records (the segment store recovers them itself), so
// before the guard such a cloud held the whole archive and answered
// every range query short. The journal-only mode itself is refused at
// construction.
func TestStorageModeSwitchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "journal_only"))); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	_, err := openCloudAt(dir)
	if err == nil {
		t.Fatal("a journal-only directory opened with a segment store must be refused")
	}
	for _, want := range []string{"storage mode mismatch", dir, "written without a segment store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("the refused boot changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	journalOnly := Config{ID: "cloud", Durability: &wal.Config{Dir: dir}}
	if _, err := New(journalOnly); !errors.Is(err, ErrStorageMode) {
		t.Errorf("a journal without a segment store: %v, want ErrStorageMode", err)
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("the refused configuration changed the directory:\n%s", after)
	}
}

// TestDeletedStoreFailsLoudly: the same invariant catches a segment
// store that was removed from under its journal, and a matching-mode
// restart keeps passing it.
func TestDeletedStoreFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	n, err := openCloudAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2, 3), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openCloudAt(dir)
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
	if _, err := openCloudAt(dir); err == nil || !strings.Contains(err.Error(), "storage mode mismatch") {
		t.Fatalf("a cloud whose store/ was deleted must be refused, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
		t.Errorf("the refused boot left a store/ behind (stat err %v)", err)
	}
}
