// Package aggregate implements the data-aggregation techniques the
// paper applies at fog layer 1 (§V.A): redundant-data elimination and
// compression, plus the decomposable aggregate functions
// (sum/avg/min/max/count) from the distributed-aggregation taxonomy
// the paper builds on [Jesus et al., IEEE CST 2015].
package aggregate

import (
	"sync"
	"sync/atomic"

	"f2c/internal/model"
	"f2c/internal/shard"
)

// dedupShards is the fixed shard count (a power of two). Because all
// readings of a batch share one sensor type, Filter takes exactly one
// shard lock per batch, and concurrent filters of different types
// never contend.
const dedupShards = 16

// dedupShard holds the elimination state of the sensor types hashing
// to it.
type dedupShard struct {
	mu   sync.Mutex
	last map[string]float64
	seen map[string]struct{}
}

// Deduper performs redundant-data elimination: a reading is redundant
// when the same sensor re-reports its previously kept value (the
// paper's weather-measurement example). The deduper is stateful across
// batches — exactly like a fog node observing its sensors over time —
// and safe for concurrent use. Its state is sharded by sensor type so
// the concurrent ingest path does not serialize on one lock.
type Deduper struct {
	shards [dedupShards]dedupShard

	in   atomic.Int64
	kept atomic.Int64
}

// NewDeduper creates an empty deduper.
func NewDeduper() *Deduper {
	d := &Deduper{}
	for i := range d.shards {
		d.shards[i].last = make(map[string]float64)
		d.shards[i].seen = make(map[string]struct{})
	}
	return d
}

func (d *Deduper) shardFor(typeName string) *dedupShard {
	return &d.shards[shard.FNV32a(typeName)&(dedupShards-1)]
}

// Filter returns a new batch containing only non-redundant readings.
// The input batch is not modified. All readings are expected to share
// the batch's sensor type (model.Batch.Validate enforces this), which
// is what makes one shard lock per batch sufficient.
func (d *Deduper) Filter(b *model.Batch) *model.Batch {
	sh := d.shardFor(b.TypeName)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	out := *b
	out.Readings = make([]model.Reading, 0, len(b.Readings))
	for i := range b.Readings {
		r := b.Readings[i]
		key := r.Key()
		if _, ok := sh.seen[key]; ok && sh.last[key] == r.Value {
			continue // redundant: same sensor, same value
		}
		sh.seen[key] = struct{}{}
		sh.last[key] = r.Value
		out.Readings = append(out.Readings, r)
	}
	d.in.Add(int64(len(b.Readings)))
	d.kept.Add(int64(len(out.Readings)))
	return &out
}

// Stats returns the number of readings observed and kept so far.
func (d *Deduper) Stats() (in, kept int64) {
	return d.in.Load(), d.kept.Load()
}

// EliminatedShare returns the measured fraction of readings removed.
func (d *Deduper) EliminatedShare() float64 {
	in, kept := d.Stats()
	if in == 0 {
		return 0
	}
	return 1 - float64(kept)/float64(in)
}

// Reset clears the deduper's sensor memory and statistics.
func (d *Deduper) Reset() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		sh.last = make(map[string]float64)
		sh.seen = make(map[string]struct{})
		sh.mu.Unlock()
	}
	d.in.Store(0)
	d.kept.Store(0)
}
