package store_test

// Cursor-stability regressions for the tiered segment engine behind
// the store-package paging contract: a QueryRangePage walk taken with
// cursors minted before a memtable flush or a compaction must resume
// after it and still see every reading exactly once, in order —
// cursors are (time, skip) positions in the canonical order, not
// pointers into any physical structure, so reshaping the physical
// layout under a walker is invisible to it.

import (
	"path/filepath"
	"testing"
	"time"

	"f2c/internal/model"
	"f2c/internal/segment"
	"f2c/internal/store"
)

var pst0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func segStore(t *testing.T) *segment.Store {
	t.Helper()
	s, err := segment.Open(segment.Options{
		Dir:          filepath.Join(t.TempDir(), "store"),
		NoBackground: true, // the tests stage flush/compaction by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func segBatch(typeName string, start, n int) *model.Batch {
	b := &model.Batch{NodeID: "n1", TypeName: typeName, Category: model.CategoryUrban, Collected: pst0}
	for i := start; i < start+n; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: "s1", TypeName: typeName, Category: model.CategoryUrban,
			Time: pst0.Add(time.Duration(i) * time.Second), Value: float64(i),
		})
	}
	return b
}

// walkRest drains the walk from cursor to the end, pageSize at a time.
func walkRest(t *testing.T, src store.Series, typeName string, pageSize int, cursor string, into []model.Reading) []model.Reading {
	t.Helper()
	from, to := pst0.Add(-time.Hour), pst0.Add(24*time.Hour)
	for {
		page, next, err := src.QueryRangePage(typeName, from, to, pageSize, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > pageSize {
			t.Fatalf("page carries %d readings, limit %d", len(page), pageSize)
		}
		into = append(into, page...)
		if next == "" {
			return into
		}
		cursor = next
	}
}

// checkExactlyOnce asserts the walk saw values [0, n) once each, in
// canonical (time) order.
func checkExactlyOnce(t *testing.T, all []model.Reading, n int) {
	t.Helper()
	if len(all) != n {
		t.Fatalf("walk = %d readings, want %d", len(all), n)
	}
	for i := range all {
		if all[i].Value != float64(i) {
			t.Fatalf("reading %d out of order or duplicated: value %v, want %v", i, all[i].Value, float64(i))
		}
	}
}

// TestSegmentPageWalkStraddlesFlush mints a cursor while every
// reading is memtable-resident, flushes the memtable into a segment
// file, and resumes: the walk must not lose or re-see a reading even
// though the rows it was walking moved from RAM to mmap'd disk.
func TestSegmentPageWalkStraddlesFlush(t *testing.T) {
	s := segStore(t)
	if err := s.Append(segBatch("traffic", 0, 25)); err != nil {
		t.Fatal(err)
	}

	page, cursor, err := s.QueryRangePage("traffic", pst0.Add(-time.Hour), pst0.Add(24*time.Hour), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	all := append([]model.Reading(nil), page...)

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.SegmentCount() == 0 {
		t.Fatal("flush published no segment: the walk never straddled one")
	}

	checkExactlyOnce(t, walkRest(t, s, "traffic", 4, cursor, all), 25)
}

// TestSegmentPageWalkStraddlesCompaction lays down several small
// segments, walks into them, compacts them into one mid-walk, and
// resumes off the pre-compaction cursor.
func TestSegmentPageWalkStraddlesCompaction(t *testing.T) {
	s := segStore(t)
	for i := 0; i < 4; i++ {
		if err := s.Append(segBatch("traffic", i*10, 10)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.SegmentCount()
	if before < 4 {
		t.Fatalf("staged %d segments, want 4", before)
	}

	page, cursor, err := s.QueryRangePage("traffic", pst0.Add(-time.Hour), pst0.Add(24*time.Hour), 7, "")
	if err != nil {
		t.Fatal(err)
	}
	all := append([]model.Reading(nil), page...)

	merged, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 || s.SegmentCount() >= before {
		t.Fatalf("compaction merged %d segments (%d -> %d): the walk never straddled one",
			merged, before, s.SegmentCount())
	}

	checkExactlyOnce(t, walkRest(t, s, "traffic", 7, cursor, all), 40)
}

// TestSegmentPageWalkStraddlesBoth is the full gauntlet: a walk that
// starts over memtable + small segments, survives a flush after page
// one and a compaction after page two, and interleaves with readings
// appended concurrently with the walk (which arrive beyond the
// cursor and must each be seen exactly once).
func TestSegmentPageWalkStraddlesBoth(t *testing.T) {
	s := segStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Append(segBatch("traffic", i*10, 10)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Rows 30..39 stay memtable-resident when the walk starts.
	if err := s.Append(segBatch("traffic", 30, 10)); err != nil {
		t.Fatal(err)
	}

	from, to := pst0.Add(-time.Hour), pst0.Add(24*time.Hour)
	page, cursor, err := s.QueryRangePage("traffic", from, to, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	all := append([]model.Reading(nil), page...)

	// Flush under the walker, then take one more page.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	page, cursor, err = s.QueryRangePage("traffic", from, to, 6, cursor)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, page...)

	// Compact under the walker, and land late arrivals ahead of it.
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(segBatch("traffic", 40, 10)); err != nil {
		t.Fatal(err)
	}

	checkExactlyOnce(t, walkRest(t, s, "traffic", 6, cursor, all), 50)
}
