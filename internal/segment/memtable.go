package segment

import (
	"sort"
	"sync"

	"f2c/internal/model"
)

// memOp is one append held by the memtable: its op number and the
// normalized batch. Keeping whole ops (not just per-type readings)
// lets a node's checkpoint carry the memtable verbatim in the store's
// recovery section.
type memOp struct {
	op uint64
	b  *model.Batch
}

// memReadingBytes is the accounting weight of one memtable reading
// (struct + both indexed copies), the unit of the MemtableBytes cap.
const memReadingBytes = 112

// memSeries is one type's readings; sorted means canonical order.
type memSeries struct {
	readings []model.Reading
	sorted   bool
}

// memtable is the mutable head of the store. Appends go to both the
// op list (for the recovery section) and a per-type view (for
// queries).
// Once frozen for flush it receives no more appends, but stays a
// query source until the segment that replaces it is published.
type memtable struct {
	mu    sync.RWMutex
	types map[string]*memSeries
	ops   []memOp
	bytes int64
	count int64
}

func newMemtable() *memtable {
	return &memtable{types: make(map[string]*memSeries)}
}

// add appends a normalized batch.
func (m *memtable) add(op uint64, b *model.Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = append(m.ops, memOp{op: op, b: b})
	ms := m.types[b.TypeName]
	if ms == nil {
		ms = &memSeries{sorted: true}
		m.types[b.TypeName] = ms
	}
	for i := range b.Readings {
		r := &b.Readings[i]
		if n := len(ms.readings); ms.sorted && n > 0 && canonLess(r, &ms.readings[n-1]) {
			ms.sorted = false
		}
		ms.readings = append(ms.readings, *r)
		m.bytes += memReadingBytes + int64(len(r.SensorID)+len(r.Unit))
	}
	m.count += int64(len(b.Readings))
}

// sortLocked puts one series in canonical order; caller holds mu.
func (ms *memSeries) sortLocked() {
	if !ms.sorted {
		sort.Slice(ms.readings, func(i, j int) bool {
			return canonLess(&ms.readings[i], &ms.readings[j])
		})
		ms.sorted = true
	}
}

// fetch copies readings of typ within [fromNs, toNs] in canonical
// order, the first max of them when max > 0. The result never aliases
// memtable storage — a later in-place sort cannot race a caller still
// merging the page.
func (m *memtable) fetch(typ string, fromNs, toNs int64, max int) []model.Reading {
	m.mu.RLock()
	for {
		ms := m.types[typ]
		if ms == nil {
			m.mu.RUnlock()
			return nil
		}
		if ms.sorted {
			break
		}
		// Re-check after sorting: an append racing the lock upgrade
		// can dirty the series again.
		m.mu.RUnlock()
		m.mu.Lock()
		ms.sortLocked()
		m.mu.Unlock()
		m.mu.RLock()
	}
	ms := m.types[typ]
	defer m.mu.RUnlock()
	rs := ms.readings
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time.UnixNano() >= fromNs })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time.UnixNano() > toNs })
	if lo >= hi {
		return nil
	}
	if max > 0 && hi-lo > max {
		hi = lo + max
	}
	out := make([]model.Reading, hi-lo)
	copy(out, rs[lo:hi])
	return out
}

// sortedRuns returns every series in canonical order with type names
// ascending — the segment writer's input. Only called on a frozen
// memtable.
func (m *memtable) sortedRuns() []typeRun {
	m.mu.Lock()
	defer m.mu.Unlock()
	runs := make([]typeRun, 0, len(m.types))
	for typ, ms := range m.types {
		ms.sortLocked()
		runs = append(runs, typeRun{typ: typ, readings: ms.readings})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].typ < runs[j].typ })
	return runs
}

// typeNames lists the types present.
func (m *memtable) typeNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.types))
	for typ := range m.types {
		out = append(out, typ)
	}
	return out
}

// footprint returns the approximate byte and reading counts.
func (m *memtable) footprint() (bytes, count int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes, m.count
}
