package cloud

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2c/internal/durable"
	"f2c/internal/segment"
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

// expectRefused opens the cloud directory dir, expects the open to be
// refused with an error naming every want, and the directory unchanged.
func expectRefused(t *testing.T, dir string, want ...string) {
	t.Helper()
	before := dirListing(t, dir)
	_, err := openCloudAt(dir)
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

// TestStorageModeSwitchFailsLoudly: a cloud directory written
// journal-only — testdata/journal_only, a snapshot of three batches
// plus a tail of two, written by the last commit that could build
// such a cloud — has a snapshot without the store section, so the
// series it served is nowhere the journal can rebuild it from. It is
// refused and left untouched. A segment store without a journal has no
// log, and is refused at construction.
func TestStorageModeSwitchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "journal_only"))); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, dir, dir, "written before", "no store section")

	storeOnly := Config{ID: "cloud", Storage: &segment.Options{Dir: filepath.Join(t.TempDir(), "store")}}
	if _, err := New(storeOnly); !errors.Is(err, durable.ErrStorageMode) {
		t.Errorf("a segment store without a journal: %v, want ErrStorageMode", err)
	}
}

// TestDeletedStoreFailsLoudly: a checkpoint cut after a store flush
// relies on the flushed segments, so a cloud whose store/ was deleted
// after that is refused and no store/ comes back; a matching restart
// keeps passing the guard.
func TestDeletedStoreFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	n, err := openCloudAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2, 3), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	if err := n.series.(*segment.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openCloudAt(dir)
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	if got := len(re.Historical("traffic", c0, c0.Add(time.Hour))); got != 3 {
		t.Errorf("matching reopen serves %d readings, want 3", got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(dir, "store")
	if err := os.RemoveAll(store); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, dir, dir, "deleted or replaced")
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("the refused boot left a store/ behind (stat err %v)", err)
	}
}
