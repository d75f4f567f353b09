package segment

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sensor"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// testBatch builds n readings of one type starting at start, one per
// step, with distinct values so exactly-once checks can count them.
func testBatch(typ string, start time.Time, n int, step time.Duration, valueBase float64) *model.Batch {
	b := &model.Batch{NodeID: "n1", TypeName: typ, Category: model.CategoryUrban, Collected: start}
	for i := 0; i < n; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: fmt.Sprintf("s%02d", i%4), TypeName: typ, Category: model.CategoryUrban,
			Time: start.Add(time.Duration(i) * step), Value: valueBase + float64(i),
			Unit: "u", Location: model.GeoPoint{Lat: 41.4, Lon: 2.2},
		})
	}
	return b
}

func openTest(t *testing.T, dir string, mut func(*Options)) *Store {
	t.Helper()
	o := Options{Dir: dir, NoBackground: true, MemtableBytes: 1 << 20}
	if mut != nil {
		mut(&o)
	}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNormalizeMatchesColumnarRoundTrip pins the invariant the whole
// engine rests on: a normalized reading is bit-identical to its
// segment round trip, so flushing can never change query results.
func TestNormalizeMatchesColumnarRoundTrip(t *testing.T) {
	b := testBatch("traffic", t0, 7, time.Second, 0)
	b.Readings[3].Location = model.GeoPoint{Lat: 41.403816, Lon: 2.174357}
	nb := normalizeBatch(b)
	enc := sensor.AppendBatchColumnar(nil, nb)
	dec, err := sensor.DecodeBatchColumnar(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nb.Readings {
		if !reflect.DeepEqual(nb.Readings[i], dec.Readings[i]) {
			t.Fatalf("reading %d changed across round trip:\n  norm %+v\n  dec  %+v", i, nb.Readings[i], dec.Readings[i])
		}
	}
}

func TestAppendFlushQuery(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	if err := s.Append(testBatch("traffic", t0, 100, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.SegmentCount(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	if err := s.Append(testBatch("traffic", t0.Add(100*time.Second), 50, time.Second, 100)); err != nil {
		t.Fatal(err)
	}
	// Merged read across segment + memtable.
	all := s.QueryRange("traffic", t0.Add(-time.Hour), t0.Add(time.Hour))
	if len(all) != 150 {
		t.Fatalf("QueryRange = %d readings, want 150", len(all))
	}
	for i := range all {
		if all[i].Value != float64(i) {
			t.Fatalf("reading %d = value %v, want %v", i, all[i].Value, float64(i))
		}
	}
	if r, ok := s.Latest("s01"); !ok || r.Value != 149 {
		t.Fatalf("Latest = %+v %v, want value 149", r, ok)
	}
	if got := s.Types(); len(got) != 1 || got[0] != "traffic" {
		t.Fatalf("Types = %v", got)
	}
	st := s.Stats()
	if st.Readings != 150 || st.Series != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPageWalkAcrossTiers(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	// Three segments plus a memtable tail, interleaved in time is not
	// needed — contiguous runs per flush exercise the k-way merge via
	// the shared instants at boundaries.
	for part := 0; part < 3; part++ {
		if err := s.Append(testBatch("noise", t0.Add(time.Duration(part*40)*time.Second), 40, time.Second, float64(part*40))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(testBatch("noise", t0.Add(120*time.Second), 30, time.Second, 120)); err != nil {
		t.Fatal(err)
	}
	var all []model.Reading
	cursor, pages := "", 0
	for {
		page, next, err := s.QueryRangePage("noise", t0.Add(-time.Minute), t0.Add(time.Hour), 7, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 7 {
			t.Fatalf("page %d carries %d readings", pages, len(page))
		}
		all = append(all, page...)
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	if len(all) != 150 {
		t.Fatalf("walk = %d readings, want 150", len(all))
	}
	for i := range all {
		if all[i].Value != float64(i) {
			t.Fatalf("reading %d out of order: %+v", i, all[i])
		}
	}
}

// TestEqualTimestampPages drives the Skip arm of the cursor across
// sources: many readings at the same instant split over segment and
// memtable.
func TestEqualTimestampPages(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	mk := func(base float64) *model.Batch {
		b := &model.Batch{NodeID: "n1", TypeName: "air", Category: model.CategoryNoise, Collected: t0}
		for i := 0; i < 10; i++ {
			b.Readings = append(b.Readings, model.Reading{
				SensorID: "s1", TypeName: "air", Category: model.CategoryNoise,
				Time: t0, Value: base + float64(i),
			})
		}
		return b
	}
	if err := s.Append(mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mk(10)); err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	cursor := ""
	for {
		page, next, err := s.QueryRangePage("air", t0.Add(-time.Second), t0.Add(time.Second), 3, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page {
			if seen[r.Value] {
				t.Fatalf("value %v returned twice", r.Value)
			}
			seen[r.Value] = true
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if len(seen) != 20 {
		t.Fatalf("saw %d distinct readings, want 20", len(seen))
	}
}

func TestCompactionMergesSmallSegments(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.CompactMinSegments = 3
	})
	defer s.Close()
	for part := 0; part < 4; part++ {
		if err := s.Append(testBatch("traffic", t0.Add(time.Duration(part*10)*time.Second), 10, time.Second, float64(part*10))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merged != 4 {
		t.Fatalf("Compact merged %d segments, want 4", merged)
	}
	if n := s.SegmentCount(); n != 1 {
		t.Fatalf("segments after compaction = %d, want 1", n)
	}
	all := s.QueryRange("traffic", t0.Add(-time.Hour), t0.Add(time.Hour))
	if len(all) != 40 {
		t.Fatalf("QueryRange after compaction = %d, want 40", len(all))
	}
	for i := range all {
		if all[i].Value != float64(i) {
			t.Fatalf("reading %d out of order after compaction", i)
		}
	}
	if left := fileCount(t, s.Dir(), ".seg"); left != 1 {
		t.Fatalf("%d .seg files on disk, want 1", left)
	}
}

func fileCount(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == suffix {
			n++
		}
	}
	return n
}

func TestRetentionDropsWholeSegments(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.Retention = time.Hour
	})
	defer s.Close()
	old := testBatch("traffic", t0, 20, time.Second, 0)
	if err := s.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := testBatch("traffic", t0.Add(2*time.Hour), 20, time.Second, 100)
	if err := s.Append(fresh); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	evicted := s.Evict(t0.Add(2 * time.Hour))
	if evicted != 20 {
		t.Fatalf("Evict = %d readings, want 20", evicted)
	}
	if n := s.SegmentCount(); n != 1 {
		t.Fatalf("segments after eviction = %d, want 1", n)
	}
	if got := s.Stats().Readings; got != 20 {
		t.Fatalf("Readings after eviction = %d, want 20", got)
	}
	all := s.QueryRange("traffic", time.Time{}, t0.Add(24*time.Hour))
	if len(all) != 20 || all[0].Value != 100 {
		t.Fatalf("post-eviction query = %d readings, first %+v", len(all), all[0])
	}
}

// TestRecoverMemtableFromWAL: an unflushed memtable lives only in the
// node's log, and a store reopened after a crash is refilled from it.
func TestRecoverMemtableFromWAL(t *testing.T) {
	dir := t.TempDir()
	var log testLog
	s := openTest(t, dir, nil)
	if err := log.append(s, testBatch("traffic", t0, 30, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	// No flush: everything lives in the log.
	s.Discard()

	s2 := reopen(t, dir, &log, nil)
	defer s2.Close()
	all := s2.QueryRange("traffic", t0.Add(-time.Hour), t0.Add(time.Hour))
	if len(all) != 30 {
		t.Fatalf("recovered %d readings, want 30", len(all))
	}
	if r, ok := s2.Latest("s01"); !ok || r.Value != 29 {
		t.Fatalf("recovered Latest = %+v %v", r, ok)
	}
}

// TestRecoverSegmentsPlusWALTail: the segments hold what was flushed,
// the log replay adds only the ops above the watermark, and the
// latest map still sees every op in log order.
func TestRecoverSegmentsPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	var log testLog
	s := openTest(t, dir, nil)
	if err := log.append(s, testBatch("traffic", t0, 40, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := log.append(s, testBatch("traffic", t0.Add(40*time.Second), 20, time.Second, 40)); err != nil {
		t.Fatal(err)
	}
	s.Discard()

	s2 := reopen(t, dir, &log, nil)
	defer s2.Close()
	if n := s2.SegmentCount(); n != 1 {
		t.Fatalf("recovered segments = %d, want 1", n)
	}
	all := s2.QueryRange("traffic", t0.Add(-time.Hour), t0.Add(time.Hour))
	if len(all) != 60 {
		t.Fatalf("recovered %d readings, want 60 (exactly once)", len(all))
	}
	seen := map[float64]bool{}
	for _, r := range all {
		if seen[r.Value] {
			t.Fatalf("value %v duplicated after recovery", r.Value)
		}
		seen[r.Value] = true
	}
	if r, ok := s2.Latest("s00"); !ok || r.Value != 56 {
		t.Fatalf("recovered Latest = %+v %v, want the tail's value 56", r, ok)
	}
}

// TestAppendSeqIdempotent: a log replay re-runs ops the segments
// already hold, and each reaches only the latest map; an op above the
// watermark still lands.
func TestAppendSeqIdempotent(t *testing.T) {
	dir := t.TempDir()
	var log testLog
	s := openTest(t, dir, nil)
	for i := 1; i <= 5; i++ {
		if err := log.append(s, testBatch("traffic", t0.Add(time.Duration(i)*time.Minute), 5, time.Second, float64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Discard()

	s2 := reopen(t, dir, &log, nil)
	defer s2.Close()
	if got := s2.FlushedOp(); got != 5 {
		t.Fatalf("FlushedOp = %d, want 5", got)
	}
	if got := s2.Stats().Readings; got != 25 {
		t.Fatalf("Readings after replay = %d, want 25", got)
	}
	if r, ok := s2.Latest("s00"); !ok || r.Value != 54 {
		t.Fatalf("Latest after replay = %+v %v, want op 5's value 54", r, ok)
	}
	// A genuinely new op still lands.
	if err := log.append(s2, testBatch("traffic", t0.Add(time.Hour), 5, time.Second, 100)); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Readings; got != 30 {
		t.Fatalf("Readings after a new op = %d, want 30", got)
	}
}

func TestCorruptSegmentTypedErrors(t *testing.T) {
	runs := []typeRun{{typ: "traffic", readings: normalizeBatch(testBatch("traffic", t0, 50, time.Second, 0)).Readings}}
	img, err := appendSegment(nil, aggregate.CodecFlate, 16, runs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseIndex(img); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	// Truncated footer.
	if _, _, err := parseIndex(img[:len(img)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated footer error = %v, want ErrCorrupt", err)
	}
	// Flipped bit inside a block: open succeeds (sparse index), the
	// block read reports the checksum.
	bad := append([]byte(nil), img...)
	bad[len(fileMagic)+frameHeader+3] ^= 0x40
	g, err := newSegment("bad", bad, false)
	if err != nil {
		t.Fatalf("open with corrupt block = %v, want lazy detection", err)
	}
	if _, err := g.blockReadings(g.blocks[0]); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt block error = %v, want ErrChecksum", err)
	}
	// Bad magic.
	bad2 := append([]byte(nil), img...)
	bad2[0] = 'X'
	if _, _, err := parseIndex(bad2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic error = %v, want ErrCorrupt", err)
	}
}

func TestQueryClampsExtremeBounds(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	if err := s.Append(testBatch("traffic", t0, 10, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if got := len(s.QueryRange("traffic", time.Time{}, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))); got != 10 {
		t.Fatalf("extreme-bounds query = %d readings, want 10", got)
	}
	if clampNs(time.Time{}) != math.MinInt64 {
		t.Fatal("zero time must clamp to MinInt64")
	}
}
