package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir)
	if re.Snapshot() != nil {
		t.Errorf("unexpected snapshot on reopen")
	}
	got := re.Records()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTornTailTruncated is the crash signature: a half-written final
// frame must not surface, and the file must be cut back so new
// appends extend a clean log.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []string{"mid-header", "mid-payload", "bad-crc"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir)
			for i := 0; i < 5; i++ {
				if err := s.Append([]byte(fmt.Sprintf("keep-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, "wal-0")
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch cut {
			case "mid-header":
				img = append(img, 0xAA, 0xBB, 0xCC)
			case "mid-payload":
				img = AppendFrame(img, []byte("torn-record"))
				img = img[:len(img)-4]
			case "bad-crc":
				img = AppendFrame(img, []byte("flipped"))
				img[len(img)-1] ^= 0x01
			}
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}

			re := openT(t, dir)
			if n := len(re.Records()); n != 5 {
				t.Fatalf("replayed %d records after %s corruption, want 5", n, cut)
			}
			if err := re.Append([]byte("after-recovery")); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again := openT(t, dir)
			if n := len(again.Records()); n != 6 {
				t.Fatalf("post-recovery append lost: replayed %d records, want 6", n)
			}
		})
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot([]byte("state-at-gen-1")); err != nil {
		t.Fatal(err)
	}
	if got := s.AppendsSinceSnapshot(); got != 0 {
		t.Errorf("appends since snapshot = %d, want 0", got)
	}
	if err := s.Append([]byte("post-snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0")); !os.IsNotExist(err) {
		t.Errorf("old-generation log survived rotation: %v", err)
	}

	re := openT(t, dir)
	if string(re.Snapshot()) != "state-at-gen-1" {
		t.Errorf("snapshot = %q", re.Snapshot())
	}
	if n := len(re.Records()); n != 1 || string(re.Records()[0]) != "post-snap" {
		t.Fatalf("tail = %d records %q, want [post-snap]", n, re.Records())
	}
}

// TestSnapshotCrashWindows drives the two crash points of the rotation
// sequence: after the rename but before the new log exists, and with
// the stale old log left behind.
func TestSnapshotCrashWindows(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Append([]byte("folded-into-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window A: new log missing.
	if err := os.Remove(filepath.Join(dir, "wal-1")); err != nil {
		t.Fatal(err)
	}
	// Crash window B: stale old log still present.
	if err := os.WriteFile(filepath.Join(dir, "wal-0"), AppendFrame(nil, []byte("stale")), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir)
	if string(re.Snapshot()) != "snap" {
		t.Errorf("snapshot = %q, want snap", re.Snapshot())
	}
	if n := len(re.Records()); n != 0 {
		t.Errorf("replayed %d stale records, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0")); !os.IsNotExist(err) {
		t.Errorf("stale log not deleted: %v", err)
	}
}

// TestFailedRotationKeepsAppends makes the next generation's log
// impossible to open (a directory holds its name) so WriteSnapshot
// fails: the store must stay on its current log, so a record appended
// after the failure survives a reopen, and a later checkpoint rotates.
func TestFailedRotationKeepsAppends(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "wal-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("snap")); err == nil {
		t.Fatal("WriteSnapshot succeeded with wal-1 a directory")
	}
	if got := s.AppendsSinceSnapshot(); got != 1 {
		t.Errorf("appends since snapshot after a failed rotation = %d, want 1", got)
	}
	if err := s.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "wal-1")); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir)
	if re.Snapshot() != nil {
		t.Errorf("failed rotation published snapshot %q", re.Snapshot())
	}
	if got := fmt.Sprintf("%q", re.Records()); got != `["pre" "post"]` {
		t.Fatalf("tail = %s, want [\"pre\" \"post\"]", got)
	}
	if err := re.WriteSnapshot([]byte("snap")); err != nil {
		t.Fatalf("rotation after the obstacle went: %v", err)
	}
	if err := re.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again := openT(t, dir)
	if string(again.Snapshot()) != "snap" {
		t.Errorf("snapshot = %q, want snap", again.Snapshot())
	}
	if got := fmt.Sprintf("%q", again.Records()); got != `["after"]` {
		t.Errorf("tail = %s, want [\"after\"]", got)
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.WriteSnapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("corrupt snapshot opened without error")
	}
}

func TestRecordSizeBounds(t *testing.T) {
	s := openT(t, t.TempDir())
	if err := s.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := s.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized record accepted")
	}
}
