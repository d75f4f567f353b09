package metrics

// Storage metric names. Every tiered-store instance registers this
// family under its node prefix ("<node id>." + name), so one shared
// registry can carry the whole hierarchy and a per-node registry
// (the f2cd / citysim -live deployment shape) exposes them through
// the same OpMetrics scrape `f2cctl metrics` reads.
const (
	// StorageSegments gauges the live (manifest-listed) segment files.
	StorageSegments = "storage.segments"
	// StorageSegmentBytes gauges the on-disk bytes of live segments.
	StorageSegmentBytes = "storage.segment_bytes"
	// StorageMemtableBytes gauges the approximate in-RAM memtable
	// footprint awaiting flush.
	StorageMemtableBytes = "storage.memtable_bytes"
	// StorageCompactions counts completed compaction merges.
	StorageCompactions = "storage.compactions"
	// StorageExpiredSegments counts whole segments dropped by
	// retention.
	StorageExpiredSegments = "storage.expired_segments"
	// StorageFlushErrors and StorageCompactErrors count memtable
	// flushes and compaction rounds that failed (shutdown aborts are
	// not failures); the background flusher retries on its next
	// trigger.
	StorageFlushErrors   = "storage.flush_errors"
	StorageCompactErrors = "storage.compact_errors"
	// StorageCompactionBytesIn and StorageCompactionBytesOut count the
	// segment bytes compaction read as inputs and wrote as outputs.
	// Out over the bytes flushed is the store's write amplification:
	// how many times a stored byte has been rewritten.
	StorageCompactionBytesIn  = "storage.compaction_bytes_in"
	StorageCompactionBytesOut = "storage.compaction_bytes_out"
)

// StorageMetrics bundles one store instance's gauges and counters.
// The zero value is not usable; obtain one from Registry.Storage.
type StorageMetrics struct {
	Segments        *Gauge
	SegmentBytes    *Gauge
	MemtableBytes   *Gauge
	Compactions     *Counter
	ExpiredSegments *Counter

	FlushErrors        *Counter
	CompactErrors      *Counter
	CompactionBytesIn  *Counter
	CompactionBytesOut *Counter
}

// Storage registers (or reuses) the storage metric family under the
// given instance prefix, typically "<node id>.".
func (r *Registry) Storage(prefix string) *StorageMetrics {
	return &StorageMetrics{
		Segments:        r.Gauge(prefix + StorageSegments),
		SegmentBytes:    r.Gauge(prefix + StorageSegmentBytes),
		MemtableBytes:   r.Gauge(prefix + StorageMemtableBytes),
		Compactions:     r.Counter(prefix + StorageCompactions),
		ExpiredSegments: r.Counter(prefix + StorageExpiredSegments),

		FlushErrors:        r.Counter(prefix + StorageFlushErrors),
		CompactErrors:      r.Counter(prefix + StorageCompactErrors),
		CompactionBytesIn:  r.Counter(prefix + StorageCompactionBytesIn),
		CompactionBytesOut: r.Counter(prefix + StorageCompactionBytesOut),
	}
}
