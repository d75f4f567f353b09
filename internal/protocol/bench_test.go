package protocol

import (
	"fmt"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sensor"
)

var benchT0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// sealBenchBatch builds a deterministic batch with the given number of
// sensors and collection rounds (readings = sensors * rounds).
func sealBenchBatch(tb testing.TB, sensors, rounds int) *model.Batch {
	tb.Helper()
	st, err := model.TypeByName("temperature")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := sensor.NewGenerator(sensor.Config{
		Type: st, NodeID: "bench-n1", Sensors: sensors, Seed: 1, Redundancy: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	out := g.Next(benchT0)
	for i := 1; i < rounds; i++ {
		nb := g.Next(benchT0.Add(time.Duration(i) * time.Minute))
		out.Readings = append(out.Readings, nb.Readings...)
	}
	return out
}

var sealBenchCodecs = []aggregate.Codec{
	aggregate.CodecNone, aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip,
}

// Batch shapes mirror what flush workers actually seal: pending
// batches merge several collection rounds per type between flushes,
// so sensor IDs repeat across rounds.
var sealBenchSizes = []struct{ sensors, rounds int }{
	{100, 2},
	{500, 4},
}

// BenchmarkSealBatch measures the full upward seal path (wire-encode +
// compress + envelope) per codec and batch size.
func BenchmarkSealBatch(b *testing.B) {
	for _, size := range sealBenchSizes {
		batch := sealBenchBatch(b, size.sensors, size.rounds)
		for _, codec := range sealBenchCodecs {
			wire := sensor.EncodeBatch(batch)
			b.Run(fmt.Sprintf("%s/n=%d", codec, len(batch.Readings)), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(wire)))
				for i := 0; i < b.N; i++ {
					if _, err := EncodeBatchPayload(batch, codec); err != nil {
						b.Fatal(err)
					}
				}
			})
			// The reuse variant is the steady-state flush-worker path:
			// a held Sealer appending into a recycled payload buffer.
			b.Run(fmt.Sprintf("%s/n=%d/reuse", codec, len(batch.Readings)), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(wire)))
				var s Sealer
				var dst []byte
				for i := 0; i < b.N; i++ {
					out, err := s.Seal(dst[:0], batch, codec)
					if err != nil {
						b.Fatal(err)
					}
					dst = out
				}
			})
		}
	}
}

// BenchmarkOpenBatch measures the full downward open path (envelope +
// decompress + decode) per codec and batch size.
func BenchmarkOpenBatch(b *testing.B) {
	for _, size := range sealBenchSizes {
		batch := sealBenchBatch(b, size.sensors, size.rounds)
		for _, codec := range sealBenchCodecs {
			payload, err := EncodeBatchPayload(batch, codec)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", codec, len(batch.Readings)), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					if _, _, err := DecodeBatchPayload(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// queryPageShapes are the reply pages a range read moves:
// DefaultPageLimit sensors at one round each, and the bench's range
// page — 25 sensors over 41 rounds, cut to the page limit — whose
// readings, like every page a tier serves, made one text hop on the
// upward path, so their coordinates carry the wire's 5 decimals.
var queryPageShapes = []struct {
	name            string
	sensors, rounds int
	hopped          bool
}{
	{"1024x1", DefaultPageLimit, 1, false},
	{"25x41", 25, 41, true},
}

func queryPageBench(tb testing.TB, sensors, rounds int, hopped bool) QueryPage {
	b := sealBenchBatch(tb, sensors, rounds)
	if hopped {
		var err error
		if b, err = sensor.DecodeBatch(sensor.EncodeBatch(b)); err != nil {
			tb.Fatal(err)
		}
	}
	return QueryPage{Found: true, NextCursor: "1496275200000000000.1024", Readings: b.Readings[:DefaultPageLimit]}
}

// BenchmarkQueryPage measures a full range-read reply page in each
// shape and body: encode is what a serving tier pays per page on the
// read's critical path, decode what the client pays, and B/reading is
// what the page costs on the wire. The text body is what older servers
// send (appendTextPage); servers now send the columnar one.
func BenchmarkQueryPage(b *testing.B) {
	bodies := []struct {
		name   string
		encode func(dst []byte, nodeID string, p QueryPage) ([]byte, error)
	}{
		{"text", appendTextPage},
		{"columnar", AppendQueryPage},
	}
	for _, shape := range queryPageShapes {
		page := queryPageBench(b, shape.sensors, shape.rounds, shape.hopped)
		n := float64(len(page.Readings))
		for _, body := range bodies {
			payload, err := body.encode(nil, "cloud", page)
			if err != nil {
				b.Fatal(err)
			}
			report := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/reading")
				b.ReportMetric(float64(len(payload))/n, "B/reading")
			}
			b.Run(shape.name+"/"+body.name+"/encode", func(b *testing.B) {
				b.ReportAllocs()
				var dst []byte
				for i := 0; i < b.N; i++ {
					if dst, err = body.encode(dst[:0], "cloud", page); err != nil {
						b.Fatal(err)
					}
				}
				report(b)
			})
			b.Run(shape.name+"/"+body.name+"/decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := DecodeQueryPage(payload); err != nil {
						b.Fatal(err)
					}
				}
				report(b)
			})
		}
	}
}
