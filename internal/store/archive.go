package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"f2c/internal/model"
)

// Record is one archived batch with its preservation metadata.
type Record struct {
	// Batch is the preserved data.
	Batch *model.Batch
	// Provenance lists the node path the data travelled
	// (fog1 -> fog2 -> cloud), implementing the paper's data-lineage
	// mention in the classification phase.
	Provenance []string
	// StoredAt is the archive ingestion instant.
	StoredAt time.Time
}

// Archive is the cloud layer's permanent, classified batch store. The
// classification phase organizes records by category, type and day so
// that dissemination and historical processing can retrieve them
// efficiently. Reading-range reads are not its job: the cloud serves
// them from its one query series. Safe for concurrent use.
type Archive struct {
	mu       sync.RWMutex
	records  []Record
	byCat    map[model.Category][]int
	byType   map[string][]int
	byDay    map[string][]int // "2017-06-01"
	readings int64
}

// NewArchive creates an empty archive.
func NewArchive() *Archive {
	return &Archive{
		byCat:  make(map[model.Category][]int),
		byType: make(map[string][]int),
		byDay:  make(map[string][]int),
	}
}

// Put classifies and stores a batch permanently.
func (a *Archive) Put(b *model.Batch, provenance []string, storedAt time.Time) (Record, error) {
	if err := b.Validate(); err != nil {
		return Record{}, fmt.Errorf("archive put: %w", err)
	}
	prov := make([]string, len(provenance))
	copy(prov, provenance)
	rec := Record{Batch: b.Clone(), Provenance: prov, StoredAt: storedAt}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.index(len(a.records), rec.Batch)
	a.records = append(a.records, rec)
	a.readings += int64(len(b.Readings))
	return rec, nil
}

// index files record idx under its batch's category, type and day.
// Called with a.mu held for write.
func (a *Archive) index(idx int, b *model.Batch) {
	a.byCat[b.Category] = append(a.byCat[b.Category], idx)
	a.byType[b.TypeName] = append(a.byType[b.TypeName], idx)
	day := b.Collected.UTC().Format("2006-01-02")
	a.byDay[day] = append(a.byDay[day], idx)
}

// ByCategory returns archived records of a category, in arrival order.
func (a *Archive) ByCategory(c model.Category) []Record {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.collect(a.byCat[c])
}

// Days returns the sorted set of days with archived data.
func (a *Archive) Days() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.byDay))
	for d := range a.byDay {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Stats reports archive volume.
func (a *Archive) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{
		Readings:    a.readings,
		Series:      len(a.byType),
		ApproxBytes: a.readings * approxReadingBytes,
	}
}

// Records returns a copy of every archived record in arrival order —
// the snapshot surface a durable cloud node folds into its checkpoint.
func (a *Archive) Records() []Record {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Record, len(a.records))
	copy(out, a.records)
	return out
}

// Len returns the number of archived records.
func (a *Archive) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.records)
}

func (a *Archive) collect(idxs []int) []Record {
	out := make([]Record, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, a.records[i])
	}
	return out
}

// Expire implements the data-destruction phase of the life cycle:
// it permanently removes records whose batches were collected before
// the cutoff ("data will be permanently preserved at cloud layer,
// unless any expiry time is defined", paper §IV.B). Returns the
// number of records destroyed.
func (a *Archive) Expire(before time.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.records[:0]
	destroyed := 0
	for _, rec := range a.records {
		if rec.Batch.Collected.Before(before) {
			destroyed++
			a.readings -= int64(len(rec.Batch.Readings))
			continue
		}
		kept = append(kept, rec)
	}
	if destroyed == 0 {
		return 0
	}
	a.records = kept
	// Rebuild the classification indexes over the surviving records.
	a.byCat = make(map[model.Category][]int)
	a.byType = make(map[string][]int)
	a.byDay = make(map[string][]int)
	for idx, rec := range a.records {
		a.index(idx, rec.Batch)
	}
	return destroyed
}
