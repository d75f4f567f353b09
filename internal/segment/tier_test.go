package segment

// Tests of the compaction policy and the streaming merge: what a round
// picks, what that costs over a store's life, and that no layout the
// policy produces changes an answer. All deterministic: explicit
// flushes and compactions, seeded randomness, no timing.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/store"
	"f2c/internal/wal"
)

// segOfSize is a stand-in segment pickTier can size up.
func segOfSize(n int) *segment { return &segment{data: make([]byte, n)} }

func TestPickTier(t *testing.T) {
	sizes := func(tier []*segment) []int {
		var out []int
		for _, g := range tier {
			out = append(out, int(g.size()))
		}
		return out
	}
	cases := []struct {
		name   string
		segs   []int
		target int64
		min    int
		want   []int
	}{
		{"too few", []int{10, 10, 10}, 1000, 4, nil},
		{"equal flushes", []int{10, 10, 10, 10}, 1000, 4, []int{10, 10, 10, 10}},
		{"a big one stays out until matched", []int{80, 10, 10, 10, 10}, 1000, 4, []int{10, 10, 10, 10}},
		{"and joins once the rest weighs as much", []int{40, 10, 10, 10, 10}, 1000, 4, []int{10, 10, 10, 10, 40}},
		{"geometric sizes strand", []int{10, 20, 40, 80, 160, 320}, 1000, 2, nil},
		{"at or above target is left alone", []int{1000, 1000, 1000, 1000, 10}, 1000, 2, nil},
		{"width is capped", []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, 1000, 4, []int{10, 10, 10, 10, 10, 10, 10, 10}},
		{"unequal pair never merges", []int{10, 11}, 1000, 2, nil},
	}
	for _, c := range cases {
		var segs []*segment
		for _, n := range c.segs {
			segs = append(segs, segOfSize(n))
		}
		if got := sizes(pickTier(segs, c.target, c.min)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: pickTier(%v) = %v, want %v", c.name, c.segs, got, c.want)
		}
	}
}

// newestSegBytes is the size of the highest-numbered segment file: what
// the last flush or compaction round wrote.
func newestSegBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest os.DirEntry
	var top uint64
	for _, e := range entries {
		if n, ok := segFileNumber(e.Name()); ok && strings.HasSuffix(e.Name(), ".seg") && n >= top {
			newest, top = e, n
		}
	}
	if newest == nil {
		t.Fatal("no segment file")
	}
	info, err := newest.Info()
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// quiesce compacts until a round merges nothing and returns the bytes
// the rounds wrote.
func quiesce(t *testing.T, s *Store) (rewritten int64) {
	t.Helper()
	for {
		n, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return rewritten
		}
		rewritten += newestSegBytes(t, s.Dir())
	}
}

func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// TestWriteAmplificationBound is the policy's contract: over N equal
// flushes, compacted to quiescence after each, compaction rewrites no
// more than ⌈log₂ N⌉ times what was flushed and leaves no more than
// CompactMinSegments·(⌈log₂ N⌉+1) segments. Merging everything below
// the target each round — the rule this replaced — rewrites N/8 times
// the flushed bytes and fails the first bound at N = 128. Only the
// store's directory is measured, so the test runs on either rule.
func TestWriteAmplificationBound(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	var flushed, rewritten int64
	for n := 1; n <= 128; n++ {
		if err := s.Append(testBatch("traffic", t0.Add(time.Duration(n)*time.Hour), 600, time.Second, float64(n*600))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		flushed += newestSegBytes(t, s.Dir())
		rewritten += quiesce(t, s)
		if n != 8 && n != 32 && n != 128 {
			continue
		}
		if bound := flushed * int64(ceilLog2(n)); rewritten > bound {
			t.Errorf("after %d flushes of %d B in all, compaction rewrote %d B (%.1fx): bound is %d B (%dx)",
				n, flushed, rewritten, float64(rewritten)/float64(flushed), bound, ceilLog2(n))
		}
		if live, bound := s.SegmentCount(), DefaultCompactMinSegments*(ceilLog2(n)+1); live > bound {
			t.Errorf("after %d flushes %d segments are live, bound is %d", n, live, bound)
		}
	}
	if got := len(s.QueryRange("traffic", time.Time{}, t0.Add(1000*time.Hour))); got != 128*600 {
		t.Fatalf("store holds %d readings, want %d", got, 128*600)
	}
}

// TestSkewedFlushesStrandBoundedSegments drives flush sizes over three
// orders of magnitude: at quiescence the segments no round will take
// must thin out geometrically, so their number is bounded by the
// spread of sizes, not by how many flushes there were.
func TestSkewedFlushesStrandBoundedSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	total := 0
	for n := 0; n < 300; n++ {
		count := 1 << rng.Intn(11) // 1 .. 1024 readings
		if rng.Intn(3) == 0 {
			count = 1 + rng.Intn(1500)
		}
		if err := s.Append(testBatch("traffic", t0.Add(time.Duration(n)*time.Hour), count, time.Second, float64(total))); err != nil {
			t.Fatal(err)
		}
		total += count
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		quiesce(t, s)

		var sizes []int64
		s.mu.RLock()
		for _, g := range s.segs {
			sizes = append(sizes, g.size())
		}
		s.mu.RUnlock()
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		// Past the first CompactMinSegments-1, each is larger than the
		// three before it together, so sizes at least triple every
		// three steps.
		spread := math.Log2(float64(sizes[len(sizes)-1]) / float64(sizes[0]))
		if bound := DefaultCompactMinSegments + int(3*spread/math.Log2(3)) + 1; len(sizes) > bound {
			t.Fatalf("flush %d: %d segments stranded (sizes %v), bound %d", n, len(sizes), sizes, bound)
		}
		if len(sizes) > 24 {
			t.Fatalf("flush %d: %d segments live: %v", n, len(sizes), sizes)
		}
	}
	if got := len(s.QueryRange("traffic", time.Time{}, t0.Add(1000*time.Hour))); got != total {
		t.Fatalf("store holds %d readings, want %d", got, total)
	}
}

// walkAll pages through [from, to] of one type and returns the walk.
func walkAll(t *testing.T, src store.Series, typ string, from, to time.Time, limit int) []model.Reading {
	t.Helper()
	var all []model.Reading
	cursor := ""
	for {
		page, next, err := src.QueryRangePage(typ, from, to, limit, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > limit {
			t.Fatalf("page of %d readings, limit %d", len(page), limit)
		}
		all = append(all, page...)
		if next == "" {
			return all
		}
		cursor = next
	}
}

// TestLayoutIndependence interleaves appends, flushes, compaction
// rounds and evictions at random and, after every step, holds the
// store to a RAM store.TimeSeries fed the same live readings: every
// QueryRange and every full page walk must be identical, whatever
// mix of memtable, small segments, merged segments and copied blocks
// the readings sit in at that moment.
func TestLayoutIndependence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := openTest(t, t.TempDir(), func(o *Options) {
				o.BlockReadings = 16
				o.CompactMinSegments = 2 + rng.Intn(3)
			})
			defer s.Close()
			types := []string{"noise_level", "traffic"}
			var mem, flushed []model.Reading // live readings by where they sit
			clock := 0                       // seconds since t0 of the next in-order batch
			far := t0.Add(1000 * time.Hour)
			for step := 0; step < 120; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					typ := types[rng.Intn(len(types))]
					n := 1 + rng.Intn(60)
					start, gap := clock, time.Second
					switch rng.Intn(4) {
					case 0: // back-dated: interleaves with what is stored
						start = rng.Intn(clock + 1)
					case 1: // one instant: the Skip arm of the cursor
						gap = 0
					}
					b := testBatch(typ, t0.Add(time.Duration(start)*time.Second), n, gap, float64(step*1000))
					if start == clock {
						clock += n
					}
					if err := s.Append(b); err != nil {
						t.Fatal(err)
					}
					mem = append(mem, normalizeBatch(b).Readings...)
				case op < 7:
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					flushed, mem = append(flushed, mem...), nil
				case op < 9:
					if _, err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				default:
					// Eviction drops whole segments, so only a cutoff on
					// one side of every segment is layout-independent:
					// the far future takes them all, the far past none.
					if rng.Intn(2) == 0 {
						if got := s.EvictBefore(far); got != len(flushed) {
							t.Fatalf("step %d: EvictBefore dropped %d readings, %d were in segments", step, got, len(flushed))
						}
						flushed = nil
					} else if got := s.EvictBefore(t0.Add(-time.Hour)); got != 0 {
						t.Fatalf("step %d: EvictBefore(past) dropped %d readings", step, got)
					}
				}

				// The reference sorts by time alone and keeps arrival
				// order within an instant; feeding it canonical order
				// makes the two orders one.
				live := append(append([]model.Reading(nil), flushed...), mem...)
				sort.Slice(live, func(i, j int) bool { return canonLess(&live[i], &live[j]) })
				ref := store.NewTimeSeries(0)
				for _, typ := range types {
					b := &model.Batch{NodeID: "n1", TypeName: typ, Category: model.CategoryUrban, Collected: t0}
					for _, r := range live {
						if r.TypeName == typ {
							b.Readings = append(b.Readings, r)
						}
					}
					if len(b.Readings) > 0 {
						if err := ref.Append(b); err != nil {
							t.Fatal(err)
						}
					}
				}
				lo := t0.Add(time.Duration(rng.Intn(clock+1)) * time.Second)
				hi := lo.Add(time.Duration(rng.Intn(clock+1)) * time.Second)
				limit := 1 + rng.Intn(40)
				for _, typ := range types {
					for _, w := range [][2]time.Time{{time.Time{}, far}, {lo, hi}} {
						want := ref.QueryRange(typ, w[0], w[1])
						if got := s.QueryRange(typ, w[0], w[1]); !sameReadings(got, want) {
							t.Fatalf("step %d: QueryRange(%s, %v, %v) = %d readings, reference %d", step, typ, w[0], w[1], len(got), len(want))
						}
						if got := walkAll(t, s, typ, w[0], w[1], limit); !sameReadings(got, want) {
							t.Fatalf("step %d: page walk(%s, limit %d) = %d readings, reference %d", step, typ, limit, len(got), len(want))
						}
					}
				}
			}
		})
	}
}

func sameReadings(a, b []model.Reading) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestBlockEstimate pins the presizing guess to [0, count] whatever the
// index says: instants closer than float64 can tell apart, a block of
// one instant, a span wider than int64.
func TestBlockEstimate(t *testing.T) {
	base := t0.UnixNano()
	for _, c := range []struct {
		m        blockMeta
		from, to int64
		lo, hi   int
	}{
		{blockMeta{minT: base, maxT: base + 50, count: 2}, base + 50, math.MaxInt64, 1, 2},
		{blockMeta{minT: base, maxT: base + 50, count: 2}, math.MinInt64, base, 1, 2},
		{blockMeta{minT: base, maxT: base + 50, count: 2}, base + 51, math.MaxInt64, 0, 0},
		{blockMeta{minT: base, maxT: base, count: 7}, base, base, 7, 7},
		{blockMeta{minT: base, maxT: base + 1000, count: 1000}, base + 100, base + 199, 99, 101},
		{blockMeta{minT: math.MinInt64, maxT: math.MaxInt64, count: maxBlockBytes}, 0, math.MaxInt64, maxBlockBytes / 2, maxBlockBytes/2 + 1},
		{blockMeta{minT: math.MinInt64, maxT: math.MaxInt64, count: maxBlockBytes}, math.MinInt64, math.MaxInt64, maxBlockBytes, maxBlockBytes},
	} {
		if got := c.m.estimate(c.from, c.to); got < c.lo || got > c.hi {
			t.Errorf("%+v.estimate(%d, %d) = %d, want %d..%d", c.m, c.from, c.to, got, c.lo, c.hi)
		}
	}
}

// TestQueryBlockOfNanosecondSpan: a block whose readings lie
// nanoseconds apart, queried at partial overlap, answers like any
// other (the presizing once divided zero by zero there).
func TestQueryBlockOfNanosecondSpan(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	if err := s.Append(testBatch("traffic", t0, 2, 50*time.Nanosecond, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	second := t0.Add(50 * time.Nanosecond)
	if got := s.QueryRange("traffic", second, second.Add(time.Hour)); len(got) != 1 || !got[0].Time.Equal(second) {
		t.Fatalf("from the second reading's instant: %v", got)
	}
	if got := s.QueryRange("traffic", t0.Add(-time.Hour), t0); len(got) != 1 || !got[0].Time.Equal(t0) {
		t.Fatalf("up to the first reading's instant: %v", got)
	}
	page, _, err := s.QueryRangePage("traffic", t0.Add(time.Nanosecond), second, 10, "")
	if err != nil || len(page) != 1 {
		t.Fatalf("paged from between the two: %v, %v", page, err)
	}
}

// cascadeStore stages a store whose next two compaction rounds
// cascade: one segment of eight flushes' worth and nine single-flush
// segments, every block full and no two overlapping in time. Round one
// takes eight of the small ones (the window is maxCompactInputs wide
// and the big one outweighs seven of them); its output makes the big
// one a match and round two takes all three that are left. CodecNone
// keeps sizes proportional to readings. Appends go through log.
func cascadeStore(t *testing.T, dir string, log *testLog) (s *Store, total int) {
	t.Helper()
	const flush = 256 // readings: eight full blocks of 32
	s = openTest(t, dir, func(o *Options) {
		o.Codec = aggregate.CodecNone
		o.BlockReadings = 32
		o.CompactMinSegments = 2
	})
	add := func(n int) {
		if err := log.append(s, testBatch("traffic", t0.Add(time.Duration(total)*time.Second), n, time.Second, float64(total))); err != nil {
			t.Fatal(err)
		}
		total += n
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	add(8 * flush)
	for i := 0; i < 9; i++ {
		add(flush)
	}
	return s, total
}

// TestCursorStableAcrossCompactionCascade takes one page, lets two
// compaction rounds reshape everything under the cursor — the second
// rewriting the output of the first, both copying full blocks as they
// are — and finishes the walk.
func TestCursorStableAcrossCompactionCascade(t *testing.T) {
	s, total := cascadeStore(t, t.TempDir(), &testLog{})
	defer s.Close()
	from, to := time.Time{}, t0.Add(24*time.Hour)
	got, cursor, err := s.QueryRangePage("traffic", from, to, 50, "")
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range []int{8, 3, 0} {
		if n, err := s.Compact(); err != nil || n != want {
			t.Fatalf("round %d merged %d segments (%v), want %d", round, n, err, want)
		}
	}
	if n := s.SegmentCount(); n != 1 {
		t.Fatalf("%d segments after the cascade, want 1", n)
	}
	for cursor != "" {
		var page []model.Reading
		if page, cursor, err = s.QueryRangePage("traffic", from, to, 50, cursor); err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
	}
	if len(got) != total {
		t.Fatalf("walk across the cascade saw %d readings, want %d", len(got), total)
	}
	for i, r := range got {
		if r.Value != float64(i) {
			t.Fatalf("position %d = %v after the cascade, want %v", i, r.Value, float64(i))
		}
	}
}

// TestCrashMidStream kills a compaction while it streams: frames are
// in the .tmp file, the index and footer are not. The inputs are still
// what the manifest lists, the next Open sweeps the torso, and no
// reading is lost or doubled.
func TestCrashMidStream(t *testing.T) {
	dir := t.TempDir()
	var log testLog
	s, total := cascadeStore(t, dir, &log)
	s.SetFailpoint(crashAt("compact:encode"))
	if _, err := s.Compact(); err == nil {
		t.Fatal("compaction survived the injected crash")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("crash mid-stream left %v (%v), want one .tmp", tmps, err)
	}
	torso, err := os.ReadFile(tmps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(torso) < 8*256*10 {
		t.Fatalf(".tmp holds %d bytes: the frames were not streamed before the crash", len(torso))
	}
	if _, _, err := parseIndex(torso); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the torso parses as a segment (%v): the crash fell after the footer", err)
	}
	s.Discard()

	s2 := reopen(t, dir, &log, nil)
	defer s2.Close()
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("reopen left %v behind", left)
	}
	if n := s2.SegmentCount(); n != 10 {
		t.Fatalf("recovered %d segments, want the 10 inputs", n)
	}
	all := s2.QueryRange("traffic", time.Time{}, t0.Add(24*time.Hour))
	if len(all) != total {
		t.Fatalf("recovered %d readings, want %d", len(all), total)
	}
	for i, r := range all {
		if r.Value != float64(i) {
			t.Fatalf("position %d = %v after recovery, want %v", i, r.Value, float64(i))
		}
	}
}

// memSegment builds an open segment from runs, in memory.
func memSegment(t *testing.T, name string, blockReadings int, runs ...typeRun) *segment {
	t.Helper()
	img, err := appendSegment(nil, aggregate.CodecFlate, blockReadings, runs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newSegment(name, img, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runOf(typ string, start time.Time, n int, valueBase float64) typeRun {
	return typeRun{typ: typ, readings: normalizeBatch(testBatch(typ, start, n, time.Second, valueBase)).Readings}
}

// mergeImage streams inputs through the compaction merge into an image.
func mergeImage(t *testing.T, blockReadings int, inputs ...*segment) ([]byte, error) {
	t.Helper()
	var img bytes.Buffer
	w, err := newSegmentWriter(&img, aggregate.CodecFlate, blockReadings)
	if err != nil {
		t.Fatal(err)
	}
	s := &Store{}
	if err := s.mergeInto(w, inputs); err != nil {
		return nil, err
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	return img.Bytes(), nil
}

// TestStreamingMergeMatchesMaterialized holds the streaming merge to
// the merge it replaced: decode every input whole, sort, encode. Over
// disjoint inputs (blocks copied), interleaved inputs, equal instants
// at a block boundary and several types, the two images are the same
// bytes.
func TestStreamingMergeMatchesMaterialized(t *testing.T) {
	const block = 16
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	cases := map[string][]*segment{
		"disjoint, full blocks": {
			memSegment(t, "a", block, runOf("traffic", at(0), 64, 0)),
			memSegment(t, "b", block, runOf("traffic", at(64), 32, 64)),
			memSegment(t, "c", block, runOf("traffic", at(96), 40, 96)),
		},
		"disjoint, ragged tails": {
			memSegment(t, "a", block, runOf("traffic", at(0), 50, 0)),
			memSegment(t, "b", block, runOf("traffic", at(50), 16, 50)),
			memSegment(t, "c", block, runOf("traffic", at(66), 21, 66)),
		},
		"interleaved": {
			memSegment(t, "a", block, runOf("traffic", at(0), 64, 0)),
			memSegment(t, "b", block, runOf("traffic", at(10), 64, 1000)),
			memSegment(t, "c", block, runOf("traffic", at(200), 16, 2000)),
		},
		"equal instants at a block boundary": {
			memSegment(t, "a", block, runOf("traffic", at(0), 16, 0)),
			memSegment(t, "b", block, runOf("traffic", at(15), 16, 100)),
		},
		"several types, not all in every input": {
			memSegment(t, "a", block, runOf("noise_level", at(0), 20, 0), runOf("traffic", at(0), 32, 0)),
			memSegment(t, "b", block, runOf("traffic", at(32), 32, 32), runOf("weather", at(5), 7, 0)),
		},
	}
	for name, inputs := range cases {
		byType := map[string][]model.Reading{}
		for _, g := range inputs {
			for _, m := range g.blocks {
				rs, err := g.blockReadings(m)
				if err != nil {
					t.Fatal(err)
				}
				byType[m.typ] = append(byType[m.typ], rs...)
			}
		}
		var runs []typeRun
		for typ, rs := range byType {
			sort.SliceStable(rs, func(i, j int) bool { return canonLess(&rs[i], &rs[j]) })
			runs = append(runs, typeRun{typ: typ, readings: rs})
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].typ < runs[j].typ })
		want, err := appendSegment(nil, aggregate.CodecFlate, block, runs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mergeImage(t, block, inputs...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed image (%d B) differs from the materialized merge (%d B)", name, len(got), len(want))
		}
	}
}

// TestFullDisjointBlockIsCopiedNotDecoded proves the pass-through by
// giving it a block it could not decode: a full block (by its index
// entry) whose frame checksums but whose payload is not a compressed
// batch at all. Alone in its time span it is carried into the output
// as it is; the moment another input reaches into its span — one
// shared instant is enough — the merge has to decode it and fails.
func TestFullDisjointBlockIsCopiedNotDecoded(t *testing.T) {
	const block = 16
	sealed := func() *segment {
		var img bytes.Buffer
		w, err := newSegmentWriter(&img, aggregate.CodecFlate, block)
		if err != nil {
			t.Fatal(err)
		}
		frame := wal.AppendFrame(nil, append([]byte{byte(aggregate.CodecFlate)}, "not a deflate stream"...))
		m := blockMeta{typ: "traffic", minT: t0.UnixNano(), maxT: t0.Add(15 * time.Second).UnixNano(), count: block}
		if err := w.copyFrame(m, frame); err != nil {
			t.Fatal(err)
		}
		if err := w.finish(); err != nil {
			t.Fatal(err)
		}
		g, err := newSegment("sealed", img.Bytes(), false)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}()
	if _, err := sealed.blockReadings(sealed.blocks[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decoding the sealed block = %v, want ErrCorrupt", err)
	}

	after := memSegment(t, "after", block, runOf("traffic", t0.Add(16*time.Second), 20, 100))
	img, err := mergeImage(t, block, sealed, after)
	if err != nil {
		t.Fatalf("merge beside a disjoint input decoded the block: %v", err)
	}
	out, err := newSegment("out", img, false)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := sealed.blocks[0], out.blocks[0]
	if !bytes.Equal(out.data[dst.off:dst.off+dst.length], sealed.data[src.off:src.off+src.length]) {
		t.Fatal("the block's frame changed on its way through the merge")
	}
	if got, _, err := out.fetch(nil, "traffic", after.minT, after.maxT, 0); err != nil || len(got) != 20 {
		t.Fatalf("readings behind the copied block: %d, %v", len(got), err)
	}

	touching := memSegment(t, "touching", block, runOf("traffic", t0.Add(15*time.Second), 20, 100))
	if _, err := mergeImage(t, block, sealed, touching); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("merge with an input sharing the block's last instant = %v, want a decode (ErrCorrupt)", err)
	}
}

// TestParentWrittenDataDir: a data dir written before the node journal
// became the store's log (one merged segment, two flushed ones, and a
// store WAL holding a snapshot and a log tail of two unflushed
// batches) is refused — its memtable lives in a log no build reads any
// more — with an error naming it, and nothing in it is written.
func TestParentWrittenDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent_store"))); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	_, err := Open(Options{Dir: dir, NoBackground: true})
	if err == nil {
		t.Fatal("a store with its own WAL opened")
	}
	for _, want := range []string{dir, "store WAL", "refused"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("the refused open changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestMaintenanceErrorsCounted pins the flusher's accounting: a flush
// or compaction that fails shows in storage.flush_errors /
// storage.compact_errors, the bytes a round reads and writes show in
// storage.compaction_bytes_*, and a shutdown abort is not an error.
func TestMaintenanceErrorsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTest(t, t.TempDir(), func(o *Options) { o.Registry = reg })
	defer s.Close()
	counter := func(name string) int64 { return reg.Export().Counters[name] }
	var flushed int64
	for i := 0; i < 4; i++ {
		if err := s.Append(testBatch("traffic", t0.Add(time.Duration(i)*time.Hour), 100, time.Second, float64(i*100))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			s.SetFailpoint(crashAt("flush:segment-written"))
			if err := s.Flush(); err == nil {
				t.Fatal("flush survived the failpoint")
			}
			s.SetFailpoint(nil)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		flushed += newestSegBytes(t, s.Dir())
	}
	s.SetFailpoint(crashAt("compact:segment-written"))
	if _, err := s.Compact(); err == nil {
		t.Fatal("compaction survived the failpoint")
	}
	s.SetFailpoint(nil)
	if n, err := s.Compact(); err != nil || n != 4 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	s.stopping.Store(true)
	if err := s.Flush(); !errors.Is(err, errStopped) {
		t.Fatalf("flush while stopping = %v", err)
	}
	if _, err := s.Compact(); !errors.Is(err, errStopped) {
		t.Fatalf("compaction while stopping = %v", err)
	}
	for name, want := range map[string]int64{
		metrics.StorageFlushErrors:        1,
		metrics.StorageCompactErrors:      1,
		metrics.StorageCompactions:        1,
		metrics.StorageCompactionBytesIn:  flushed,
		metrics.StorageCompactionBytesOut: newestSegBytes(t, s.Dir()),
	} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFailedRoundRemovesItsTmp: a compaction that fails while
// streaming (here on a damaged input block) leaves no partial .tmp
// behind, and the inputs stay live.
func TestFailedRoundRemovesItsTmp(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	for i := 0; i < 4; i++ { // overlapping spans: every block is decoded
		if err := s.Append(testBatch("traffic", t0.Add(time.Duration(i)*time.Millisecond), 100, time.Second, float64(i*100))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 4 {
		t.Fatalf("segments = %v (%v), want 4", segs, err)
	}
	img, err := os.ReadFile(segs[3])
	if err != nil {
		t.Fatal(err)
	}
	img[len(fileMagic)+frameHeader+4] ^= 0xff // inside the first block's payload
	if err := os.WriteFile(segs[3], img, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, nil)
	defer s.Close()
	if _, err := s.Compact(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Compact over a damaged block = %v, want ErrChecksum", err)
	}
	if n := fileCount(t, dir, ".tmp"); n != 0 {
		t.Errorf("the failed round left %d .tmp files", n)
	}
	if got := s.SegmentCount(); got != 4 {
		t.Errorf("%d live segments after the failed round, want 4", got)
	}
}
