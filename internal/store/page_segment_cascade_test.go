package store_test

import (
	"path/filepath"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/segment"
)

// TestSegmentPageWalkStraddlesCompactionCascade is the tiered form of
// TestSegmentPageWalkStraddlesCompaction: between two pages of one
// walk, two compaction rounds run, the second rewriting the output of
// the first. The layout — one segment of eight flushes' worth, nine of
// one flush each, every block full and none overlapping another — is
// also the one in which compaction copies block frames as they are
// instead of decoding them.
func TestSegmentPageWalkStraddlesCompactionCascade(t *testing.T) {
	s, err := segment.Open(segment.Options{
		Dir:                filepath.Join(t.TempDir(), "store"),
		NoBackground:       true,
		Codec:              aggregate.CodecNone, // sizes proportional to readings
		BlockReadings:      32,
		CompactMinSegments: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	const flush = 256
	total := 0
	for _, n := range []int{8 * flush, flush, flush, flush, flush, flush, flush, flush, flush, flush} {
		if err := s.Append(segBatch("traffic", total, n)); err != nil {
			t.Fatal(err)
		}
		total += n
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	page, cursor, err := s.QueryRangePage("traffic", pst0.Add(-time.Hour), pst0.Add(24*time.Hour), 100, "")
	if err != nil {
		t.Fatal(err)
	}
	all := append([]model.Reading(nil), page...)

	for round, want := range []int{8, 3, 0} {
		if n, err := s.Compact(); err != nil || n != want {
			t.Fatalf("round %d merged %d segments (%v), want %d: the fixture no longer cascades", round, n, err, want)
		}
	}
	checkExactlyOnce(t, walkRest(t, s, "traffic", 100, cursor, all), total)
}
