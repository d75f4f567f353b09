package cloud

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParentV3DataDir: testdata/parent_v3 was written by the commit
// before the cloud journaled summary pushes — a version-3 snapshot with
// preserves and an alert push, a tail with a preserve, an alert push
// and an expire record, and a segment store keeping its own WAL. Its
// series lives in that WAL, which no build reads any more, so the dir
// is refused with an error naming it, and nothing in it is written.
func TestParentV3DataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent_v3"))); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, dir, dir, "store WAL", "refused")
}
