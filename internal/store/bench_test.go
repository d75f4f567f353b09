package store

import (
	"strconv"
	"testing"
	"time"
)

func benchBatch(n int, at time.Time) []string {
	sensors := make([]string, n)
	for i := range sensors {
		sensors[i] = "s" + strconv.Itoa(i)
	}
	return sensors
}

func BenchmarkTimeSeriesAppend(b *testing.B) {
	sensors := benchBatch(100, t0)
	s := NewTimeSeries(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if err := s.Append(batchAt("n", "traffic", at, sensors...)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100), "readings/op")
}

func BenchmarkTimeSeriesQueryRange(b *testing.B) {
	s := NewTimeSeries(0)
	for i := 0; i < 1000; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		_ = s.Append(batchAt("n", "traffic", at, "a", "b"))
	}
	from, to := t0.Add(100*time.Second), t0.Add(200*time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.QueryRange("traffic", from, to); len(got) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTimeSeriesLatest(b *testing.B) {
	s := NewTimeSeries(0)
	_ = s.Append(batchAt("n", "traffic", t0, "a"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Latest("a"); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkArchivePut(b *testing.B) {
	a := NewArchive()
	prov := []string{"fog2/d01", "cloud"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if _, err := a.Put(batchAt("n", "traffic", at, "a", "b", "c"), prov, at); err != nil {
			b.Fatal(err)
		}
	}
}
