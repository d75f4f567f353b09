package aggregate

import (
	"fmt"
	"testing"
)

func BenchmarkCountMinAdd(b *testing.B) {
	cm, err := NewCountMin(4, 1024)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("sensor-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(keys[i%len(keys)], 1)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm, _ := NewCountMin(4, 1024)
	for i := 0; i < 10000; i++ {
		cm.Add(fmt.Sprintf("sensor-%d", i%256), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Estimate("sensor-42")
	}
}

func BenchmarkKMVAdd(b *testing.B) {
	s, err := NewKMV(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(fmt.Sprintf("sensor-%d", i))
	}
}

func BenchmarkSummaryMerge(b *testing.B) {
	x := Summary{}.Observe(1).Observe(2).Observe(3)
	y := Summary{}.Observe(4).Observe(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Merge(y)
	}
}

func BenchmarkCompressCodecs(b *testing.B) {
	line := "bcn/d1/s1/temperature/42;1496275200000000000;21.5;C;41.38000;2.17000\n"
	var payload []byte
	for i := 0; i < 1000; i++ {
		payload = append(payload, line...)
	}
	for _, c := range []Codec{CodecFlate, CodecGzip, CodecZip} {
		b.Run(c.String(), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := Compress(c, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
