package segment

// Microbenchmarks for working on the tiered engine one layer at a
// time (the benchmark in bench/ restates the same costs end to end as
// its segment.* rows):
//
//   - SegmentIngest: the hot append path — the RAM TimeSeries
//     baseline against the tiered store with the WAL on (the
//     production configuration) and off (isolating the journal's
//     share of the overhead);
//   - SegmentColdRange: a range query over history that has left the
//     memtable — answered from RAM slices vs from mmap'd segment
//     files through the sparse index;
//   - SegmentNarrowRange: a hundred readings astride a block boundary
//     of that history — what a result presized to whole blocks
//     instead of interpolated ones doubles (120 -> 220 us, 11 -> 430
//     KB/op);
//   - SegmentCompaction: what keeping the segment set small costs —
//     bytes rewritten per byte flushed and heap allocated per run, at
//     16 and at 64 flushes: streaming keeps the second from growing
//     with the first, tiering keeps the first near log N;
//   - SegmentSteadyRSS: live heap after a day-scale ingest — the RAM
//     store retains every reading, the tiered store only its memtable
//     cap, which is the bound the engine exists to enforce.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/store"
)

// appender is the append surface shared by the RAM baseline and the
// tiered store.
type appender interface {
	Append(b *model.Batch) error
}

// rangeQuerier is the corresponding read surface.
type rangeQuerier interface {
	QueryRange(typeName string, from, to time.Time) []model.Reading
}

func BenchmarkSegmentIngest(b *testing.B) {
	const perBatch = 64
	run := func(b *testing.B, app appender) {
		b.ReportAllocs()
		start := t0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := testBatch(fmt.Sprintf("t%d", i%4), start, perBatch, time.Second, float64(i*perBatch))
			if err := app.Append(batch); err != nil {
				b.Fatal(err)
			}
			start = start.Add(perBatch * time.Second)
		}
	}
	b.Run("ram", func(b *testing.B) {
		run(b, store.NewTimeSeries(0))
	})
	b.Run("durable", func(b *testing.B) {
		s, err := Open(Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		run(b, s)
	})
	b.Run("nowal", func(b *testing.B) {
		s, err := Open(Options{Dir: b.TempDir(), DisableWAL: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		run(b, s)
	})
}

// coldHist is the history depth the cold-range benchmarks scan; for
// the tiered store all of it is flushed and compacted into segment
// files before the clock starts.
const coldHist = 50_000

func coldLoad(b *testing.B, app appender) {
	b.Helper()
	for off := 0; off < coldHist; off += 2048 {
		n := 2048
		if off+n > coldHist {
			n = coldHist - off
		}
		batch := testBatch("traffic", t0.Add(time.Duration(off)*time.Millisecond), n, time.Millisecond, float64(off))
		if err := app.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentColdRange(b *testing.B) {
	from, to := t0, t0.Add(coldHist*time.Millisecond)
	run := func(b *testing.B, q rangeQuerier) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := q.QueryRange("traffic", from, to)
			if len(got) != coldHist {
				b.Fatalf("cold range = %d readings, want %d", len(got), coldHist)
			}
		}
	}
	b.Run("ram", func(b *testing.B) {
		s := store.NewTimeSeries(0)
		coldLoad(b, s)
		run(b, s)
	})
	b.Run("mmap", func(b *testing.B) {
		s, err := Open(Options{Dir: b.TempDir(), NoBackground: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		coldLoad(b, s)
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			b.Fatal(err)
		}
		if s.SegmentCount() == 0 {
			b.Fatal("no segments: the cold path never left RAM")
		}
		run(b, s)
	})
}

func BenchmarkSegmentNarrowRange(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), NoBackground: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	coldLoad(b, s)
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	from, to := t0.Add(2000*time.Millisecond), t0.Add(2099*time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.QueryRange("traffic", from, to); len(got) != 100 {
			b.Fatalf("narrow range = %d readings, want 100", len(got))
		}
	}
}

// BenchmarkSegmentCompaction flushes 8 k readings over 16 types N
// times, compacting to quiescence after each flush as the background
// loop does, and reports the write amplification (compaction bytes
// written per byte flushed) beside the usual B/op and allocs/op. The
// WAL is off and the readings are built before the clock starts:
// what is left is flush + compaction.
func BenchmarkSegmentCompaction(b *testing.B) {
	const perFlush, types = 8192, 16
	for _, flushes := range []int{16, 64} {
		b.Run(fmt.Sprintf("flushes=%d", flushes), func(b *testing.B) {
			batches := make([]*model.Batch, 0, flushes*types)
			for f := 0; f < flushes; f++ {
				for t := 0; t < types; t++ {
					start := t0.Add(time.Duration(f*perFlush/types) * time.Second)
					batches = append(batches, testBatch(fmt.Sprintf("t%02d", t), start, perFlush/types, time.Second, float64(f*perFlush)))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var flushed, rewritten int64
			for i := 0; i < b.N; i++ {
				reg := metrics.NewRegistry()
				s, err := Open(Options{Dir: b.TempDir(), NoBackground: true, DisableWAL: true, Registry: reg})
				if err != nil {
					b.Fatal(err)
				}
				segBytes := func() int64 { return reg.Export().Gauges[metrics.StorageSegmentBytes] }
				for f := 0; f < flushes; f++ {
					for _, batch := range batches[f*types : (f+1)*types] {
						if err := s.Append(batch); err != nil {
							b.Fatal(err)
						}
					}
					before := segBytes()
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
					flushed += segBytes() - before
					for {
						n, err := s.Compact()
						if err != nil {
							b.Fatal(err)
						}
						if n == 0 {
							break
						}
					}
				}
				rewritten += reg.Export().Counters[metrics.StorageCompactionBytesOut]
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rewritten)/float64(flushed), "rewritten-B/ingested-B")
		})
	}
}

// BenchmarkSegmentSteadyRSS reports live heap bytes after a day-scale
// ingest (b.N only repeats the measurement; ns/op is meaningless
// here). The tiered store runs with a 256 KiB memtable so nearly all
// history lives in segment files; heap-B is the number that proves
// the RSS bound.
func BenchmarkSegmentSteadyRSS(b *testing.B) {
	const total = 200_000
	ingest := func(b *testing.B, app appender) {
		b.Helper()
		for off := 0; off < total; off += 1024 {
			batch := testBatch("traffic", t0.Add(time.Duration(off)*time.Millisecond), 1024, time.Millisecond, float64(off))
			if err := app.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	heapNow := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	b.Run("ram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := heapNow()
			s := store.NewTimeSeries(0)
			ingest(b, s)
			b.ReportMetric(heapNow()-base, "heap-B")
			runtime.KeepAlive(s)
		}
	})
	b.Run("tiered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := heapNow()
			s, err := Open(Options{Dir: b.TempDir(), MemtableBytes: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			ingest(b, s)
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(heapNow()-base, "heap-B")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
