package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashAt returns a failpoint that simulates a crash at one named
// stage by failing it (the maintenance pass aborts, leaving the
// on-disk state exactly as a process death there would).
func crashAt(stage string) func(string) error {
	return func(got string) error {
		if got == stage {
			return errors.New("injected crash at " + stage)
		}
		return nil
	}
}

// reopen opens the store a crash left in dir and refills it from the
// log, as the node that owns it would.
func reopen(t *testing.T, dir string, log *testLog, mut func(*Options)) *Store {
	t.Helper()
	s := openTest(t, dir, mut)
	if err := log.recover(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// expectExactlyOnce reopens dir and asserts the store holds exactly
// the values [0, want) once each.
func expectExactlyOnce(t *testing.T, dir string, log *testLog, want int) {
	t.Helper()
	s := reopen(t, dir, log, nil)
	defer s.Close()
	all := s.QueryRange("traffic", time.Time{}, t0.Add(24*time.Hour))
	if len(all) != want {
		t.Fatalf("recovered %d readings, want %d", len(all), want)
	}
	seen := map[float64]bool{}
	for _, r := range all {
		if seen[r.Value] {
			t.Fatalf("value %v recovered twice", r.Value)
		}
		seen[r.Value] = true
	}
}

// TestCrashMidFlush kills the store at every flush stage boundary in
// turn and proves recovery replays each reading exactly once: before
// the manifest commit the log covers everything (the orphan segment
// is swept), after it the segment covers the frozen memtable and the
// log replay skips those ops. A checkpoint cut after the crash
// carries the frozen memtable in its section, under the same rule.
func TestCrashMidFlush(t *testing.T) {
	for _, stage := range []string{"flush:encode", "flush:segment-written", "flush:manifest-written"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			var log testLog
			s := openTest(t, dir, nil)
			if err := log.append(s, testBatch("traffic", t0, 40, time.Second, 0)); err != nil {
				t.Fatal(err)
			}
			s.SetFailpoint(crashAt(stage))
			if err := s.Flush(); err == nil {
				t.Fatal("flush survived the injected crash")
			}
			// The section cut now carries the frozen memtable too.
			log.checkpoint(s)
			s.Discard()
			expectExactlyOnce(t, dir, &log, 40)
		})
	}
}

// TestCrashMidCompaction does the same across compaction stages: the
// inputs stay live until the manifest swap, and an interrupted merge
// leaves either the old segments (pre-commit) or the merged one
// (post-commit) — never both, never neither.
func TestCrashMidCompaction(t *testing.T) {
	for _, stage := range []string{"compact:encode", "compact:segment-written", "compact:manifest-written"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			var log testLog
			s := openTest(t, dir, nil)
			for part := 0; part < 4; part++ {
				if err := log.append(s, testBatch("traffic", t0.Add(time.Duration(part*10)*time.Second), 10, time.Second, float64(part*10))); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			s.SetFailpoint(crashAt(stage))
			if _, err := s.Compact(); err == nil {
				t.Fatal("compaction survived the injected crash")
			}
			s.Discard()
			expectExactlyOnce(t, dir, &log, 40)
		})
	}
}

// TestCrashBetweenFlushes interleaves appends, flushes, checkpoints
// and crashes over several generations — the recovery section +
// manifest watermark interplay across restarts, with the section cut
// before a flush, after one, and over an empty memtable.
func TestCrashBetweenFlushes(t *testing.T) {
	dir := t.TempDir()
	var log testLog
	total := 0
	for gen := 0; gen < 6; gen++ {
		s := reopen(t, dir, &log, nil)
		if gen%3 == 1 {
			log.checkpoint(s)
		}
		if err := log.append(s, testBatch("traffic", t0.Add(time.Duration(total)*time.Second), 15, time.Second, float64(total))); err != nil {
			t.Fatal(err)
		}
		total += 15
		if gen%3 == 2 {
			log.checkpoint(s)
		}
		if gen%2 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		s.Discard() // crash: no clean close, no final flush
		expectExactlyOnce(t, dir, &log, total)
	}
}

// TestRecoveredCursorSurvivesRestart walks half a range, crashes the
// store, and resumes the same cursor against the recovered store —
// time-addressed cursors are state on the client, not the server.
func TestRecoveredCursorSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var log testLog
	s := openTest(t, dir, nil)
	if err := log.append(s, testBatch("traffic", t0, 30, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := log.append(s, testBatch("traffic", t0.Add(30*time.Second), 30, time.Second, 30)); err != nil {
		t.Fatal(err)
	}
	from, to := time.Time{}, t0.Add(24*time.Hour)
	var got []float64
	cursor := ""
	for i := 0; i < 4; i++ {
		page, next, err := s.QueryRangePage("traffic", from, to, 7, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page {
			got = append(got, r.Value)
		}
		cursor = next
	}
	s.Discard()
	s2 := reopen(t, dir, &log, nil)
	defer s2.Close()
	for cursor != "" {
		page, next, err := s2.QueryRangePage("traffic", from, to, 7, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page {
			got = append(got, r.Value)
		}
		cursor = next
	}
	if len(got) != 60 {
		t.Fatalf("resumed walk saw %d readings, want 60", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("position %d = %v, want %v", i, v, float64(i))
		}
	}
}

// TestManifestListsMissingSegment pins the hard-error stance: losing
// a committed segment file is bit rot needing operator attention,
// not silently dropped data.
func TestManifestListsMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	if err := s.Append(testBatch("traffic", t0, 10, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Discard()
	if err := removeOneSeg(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, NoBackground: true}); err == nil {
		t.Fatal("Open succeeded with a manifest-listed segment missing")
	}
}

func removeOneSeg(dir string) error {
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	if len(man.Segments) == 0 {
		return fmt.Errorf("no segments to remove")
	}
	return removeFile(dir, man.Segments[0])
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
