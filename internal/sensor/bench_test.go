package sensor

import (
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
)

func benchBatch(b *testing.B, sensors, rounds int) *model.Batch {
	b.Helper()
	st, err := model.TypeByName("temperature")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(Config{Type: st, NodeID: "n1", Sensors: sensors, Seed: 1, Redundancy: -1})
	if err != nil {
		b.Fatal(err)
	}
	out := g.Next(t0)
	for i := 1; i < rounds; i++ {
		nb := g.Next(t0.Add(time.Duration(i) * time.Minute))
		out.Readings = append(out.Readings, nb.Readings...)
	}
	return out
}

// BenchmarkWireFormats compares the row-text encoding against the
// columnar delta encoding, raw and after flate — the future-work
// aggregation extension's payoff.
func BenchmarkWireFormats(b *testing.B) {
	batch := benchBatch(b, 100, 8)
	b.Run("text", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(EncodeBatch(batch))
		}
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("columnar", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(AppendBatchColumnar(nil, batch))
		}
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("text+flate", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			comp, err := aggregate.Compress(aggregate.CodecFlate, EncodeBatch(batch))
			if err != nil {
				b.Fatal(err)
			}
			n = len(comp)
		}
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("columnar+flate", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			comp, err := aggregate.Compress(aggregate.CodecFlate, AppendBatchColumnar(nil, batch))
			if err != nil {
				b.Fatal(err)
			}
			n = len(comp)
		}
		b.ReportMetric(float64(n), "bytes")
	})
}

func BenchmarkGeneratorNext(b *testing.B) {
	st, err := model.TypeByName("traffic")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(Config{Type: st, NodeID: "n", Sensors: 500, Seed: 1, Redundancy: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(t0.Add(time.Duration(i) * time.Minute))
	}
	b.ReportMetric(500, "readings/op")
}

func BenchmarkDecodeBatch(b *testing.B) {
	batch := benchBatch(b, 100, 4)
	wire := EncodeBatch(batch)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatchColumnar(b *testing.B) {
	batch := benchBatch(b, 100, 4)
	wire := AppendBatchColumnar(nil, batch)
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatchColumnar(wire); err != nil {
			b.Fatal(err)
		}
	}
}
