package segment

import (
	"testing"
	"time"

	"f2c/internal/metrics"
)

// TestStorageMetricsExported pins the observability contract: a store
// wired to a node registry under a node prefix keeps the storage
// gauge family live through every lifecycle event, and the values
// surface in the same Registry.Export document the OpMetrics control
// endpoint (f2cctl metrics) serves.
func TestStorageMetricsExported(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.Registry = reg
		o.MetricsPrefix = "fog2/d01."
		o.Retention = time.Hour
		o.CompactMinSegments = 2
	})
	defer s.Close()

	for i := 0; i < 3; i++ {
		if err := s.Append(testBatch("traffic", t0.Add(time.Duration(i)*time.Minute), 50, time.Second, float64(i*50))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testBatch("traffic", t0.Add(time.Hour), 10, time.Second, 1000)); err != nil {
		t.Fatal(err)
	}
	s.Evict(t0.Add(3 * time.Hour))

	exp := reg.Export()
	gauges := []string{
		"fog2/d01." + metrics.StorageSegments,
		"fog2/d01." + metrics.StorageSegmentBytes,
		"fog2/d01." + metrics.StorageMemtableBytes,
	}
	for _, name := range gauges {
		if _, ok := exp.Gauges[name]; !ok {
			t.Errorf("gauge %s missing from export", name)
		}
	}
	counters := map[string]bool{ // name -> must be nonzero
		"fog2/d01." + metrics.StorageCompactions:        true,
		"fog2/d01." + metrics.StorageExpiredSegments:    true,
		"fog2/d01." + metrics.StorageCompactionBytesIn:  true,
		"fog2/d01." + metrics.StorageCompactionBytesOut: true,
		"fog2/d01." + metrics.StorageFlushErrors:        false,
		"fog2/d01." + metrics.StorageCompactErrors:      false,
	}
	for name, wantNonzero := range counters {
		v, ok := exp.Counters[name]
		if !ok {
			t.Errorf("counter %s missing from export", name)
			continue
		}
		if wantNonzero && v == 0 {
			t.Errorf("counter %s = 0, want nonzero after compaction/eviction", name)
		}
	}
	if exp.Gauges["fog2/d01."+metrics.StorageMemtableBytes] == 0 {
		t.Error("memtable gauge = 0 with unflushed readings resident")
	}
}
