// Package store is the storage substrate of the F2C hierarchy: a
// time-series store with retention for the fog layers (temporal data,
// real-time reads) and a permanent classified archive for the cloud
// layer (the data-preservation block's classification + archive
// phases).
package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/model"
	"f2c/internal/shard"
)

// Cursor is a resume position within a time-sorted range scan: the
// next page starts at the first reading with Time >= T (unix nanos)
// after skipping Skip readings whose Time equals T — the readings of
// that instant already returned by earlier pages. Cursors are
// time-addressed, so retention eviction between pages (which only
// removes readings older than any live cursor's window) cannot shift
// the resume point.
type Cursor struct {
	T    int64
	Skip int
}

// String renders the cursor in its opaque wire form.
func (c Cursor) String() string {
	return strconv.FormatInt(c.T, 10) + "." + strconv.Itoa(c.Skip)
}

// ParseCursor parses the wire form produced by Cursor.String.
func ParseCursor(s string) (Cursor, error) {
	tt, ss, ok := strings.Cut(s, ".")
	if !ok {
		return Cursor{}, fmt.Errorf("store: malformed cursor %q", s)
	}
	t, err := strconv.ParseInt(tt, 10, 64)
	if err != nil {
		return Cursor{}, fmt.Errorf("store: malformed cursor %q", s)
	}
	skip, err := strconv.Atoi(ss)
	if err != nil || skip < 0 {
		return Cursor{}, fmt.Errorf("store: malformed cursor %q", s)
	}
	return Cursor{T: t, Skip: skip}, nil
}

// PageWindow applies (limit, cursor) to a time-sorted window and
// returns the [start, end) bounds of the page plus the follow-up
// cursor ("" when the scan is complete). limit <= 0 means unbounded.
// Exported so storage engines layering the same cursor contract over
// other backends (internal/segment) page identically to TimeSeries.
func PageWindow(win []model.Reading, limit int, cur Cursor, haveCur bool) (start, end int, next string) {
	start = 0
	if haveCur {
		start = sort.Search(len(win), func(i int) bool { return win[i].Time.UnixNano() >= cur.T })
		for skip := cur.Skip; skip > 0 && start < len(win) && win[start].Time.UnixNano() == cur.T; skip-- {
			start++
		}
	}
	end = len(win)
	if limit > 0 && end-start > limit {
		end = start + limit
	}
	if end >= len(win) || end <= start {
		return start, end, ""
	}
	last := win[end-1].Time.UnixNano()
	skip := 0
	for i := end - 1; i >= start && win[i].Time.UnixNano() == last; i-- {
		skip++
	}
	if haveCur && cur.T == last {
		skip += cur.Skip
	}
	return start, end, Cursor{T: last, Skip: skip}.String()
}

// Stats summarizes store contents.
type Stats struct {
	Readings int64
	Series   int
	// ApproxBytes estimates stored payload volume using the in-memory
	// reading footprint.
	ApproxBytes int64
}

// approxReadingBytes is the accounting weight of one stored reading.
const approxReadingBytes = 96

// Series is the one time-series surface every node stores readings
// behind: the in-RAM TimeSeries and the durable segment.Store both
// serve it under the same cursor contract.
type Series interface {
	Append(b *model.Batch) error
	// AppendSeq is Append as op, the position of the journal record
	// that carries the batch on a durable node (segment.Store.AppendSeq).
	AppendSeq(b *model.Batch, op uint64) error
	Latest(sensorID string) (model.Reading, bool)
	QueryRange(typeName string, from, to time.Time) []model.Reading
	QueryRangePage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error)
	// Evict applies the store's own retention window relative to now.
	Evict(now time.Time) int
	// EvictBefore drops readings older than an explicit cutoff,
	// whatever the retention: the cloud's data-destruction phase.
	EvictBefore(before time.Time) int
	Stats() Stats
}

var _ Series = (*TimeSeries)(nil)

// storeShards is the fixed shard count (a power of two) for both the
// per-type series maps and the per-sensor latest maps. Appends of
// different sensor types land on different series shards, so the
// concurrent ingest path scales instead of serializing on one lock.
const storeShards = 16

// seriesShard holds the readings of the sensor types hashing to it.
type seriesShard struct {
	mu     sync.RWMutex
	byType map[string][]model.Reading
	dirty  map[string]bool // needs sort before range query
}

// latestShard holds the newest reading of the sensors hashing to it.
type latestShard struct {
	mu       sync.RWMutex
	bySensor map[string]model.Reading
}

// TimeSeries is an in-memory time-series store holding readings
// grouped by sensor type, with optional time-based retention. It
// serves both the fog layers (retention > 0: temporal storage for
// real-time access) and scratch processing. Safe for concurrent use;
// state is hash-sharded so concurrent appends of different types and
// reads of different sensors do not contend.
type TimeSeries struct {
	retention time.Duration
	count     atomic.Int64
	series    [storeShards]seriesShard
	latest    [storeShards]latestShard
}

// NewTimeSeries creates a store. retention 0 keeps data forever.
func NewTimeSeries(retention time.Duration) *TimeSeries {
	s := &TimeSeries{retention: retention}
	for i := range s.series {
		s.series[i].byType = make(map[string][]model.Reading)
		s.series[i].dirty = make(map[string]bool)
	}
	for i := range s.latest {
		s.latest[i].bySensor = make(map[string]model.Reading)
	}
	return s
}

// Retention returns the configured retention window.
func (s *TimeSeries) Retention() time.Duration { return s.retention }

func (s *TimeSeries) seriesShardFor(typeName string) *seriesShard {
	return &s.series[shard.FNV32a(typeName)&(storeShards-1)]
}

func (s *TimeSeries) latestShardFor(sensorID string) *latestShard {
	return &s.latest[shard.FNV32a(sensorID)&(storeShards-1)]
}

// AppendSeq is Append: an in-RAM store has no log to number its ops
// after.
func (s *TimeSeries) AppendSeq(b *model.Batch, _ uint64) error { return s.Append(b) }

// Append stores every reading of the batch.
func (s *TimeSeries) Append(b *model.Batch) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("store append: %w", err)
	}
	sh := s.seriesShardFor(b.TypeName)
	sh.mu.Lock()
	series := sh.byType[b.TypeName]
	for i := range b.Readings {
		r := b.Readings[i]
		if n := len(series); n > 0 && r.Time.Before(series[n-1].Time) {
			sh.dirty[b.TypeName] = true
		}
		series = append(series, r)
	}
	sh.byType[b.TypeName] = series
	sh.mu.Unlock()
	s.count.Add(int64(len(b.Readings)))

	// Group the latest-map updates by shard so each shard lock is
	// taken once per batch instead of once per reading.
	if len(b.Readings) == 0 {
		return nil
	}
	var idxArr [512]uint8
	idx := idxArr[:0]
	if len(b.Readings) > len(idxArr) {
		idx = make([]uint8, 0, len(b.Readings))
	}
	var used [storeShards]bool
	for i := range b.Readings {
		j := uint8(shard.FNV32a(b.Readings[i].SensorID) & (storeShards - 1))
		idx = append(idx, j)
		used[j] = true
	}
	for si := 0; si < storeShards; si++ {
		if !used[si] {
			continue
		}
		ls := &s.latest[si]
		ls.mu.Lock()
		for i := range b.Readings {
			if idx[i] != uint8(si) {
				continue
			}
			r := b.Readings[i]
			if cur, ok := ls.bySensor[r.SensorID]; !ok || !r.Time.Before(cur.Time) {
				ls.bySensor[r.SensorID] = r
			}
		}
		ls.mu.Unlock()
	}
	return nil
}

// Latest returns the most recent reading of a sensor — the real-time
// read path that makes fog layer 1 fast for critical services.
func (s *TimeSeries) Latest(sensorID string) (model.Reading, bool) {
	ls := s.latestShardFor(sensorID)
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	r, ok := ls.bySensor[sensorID]
	return r, ok
}

// QueryRange returns readings of a type within [from, to], sorted by
// time: the unbounded page from the beginning. The returned slice is
// a copy.
func (s *TimeSeries) QueryRange(typeName string, from, to time.Time) []model.Reading {
	out, _, _ := s.QueryRangePage(typeName, from, to, 0, "")
	return out
}

// QueryRangePage returns one bounded page of readings of a type
// within [from, to], time-sorted, plus the cursor resuming the scan
// ("" when this page completes it). limit <= 0 means unbounded
// (equivalent to QueryRange); cursor "" starts at the beginning. The
// scan never materializes more than one page: paging is applied to
// the sorted series in place and only the page is copied out. Pages
// over a live series are best-effort — an out-of-order append landing
// exactly at the cursor instant between two pages can duplicate a
// reading; archived/historical series are stable. Already-sorted
// series (the steady state: appends arrive in time order) are served
// entirely under the read lock, so concurrent readers of a shard do
// not serialize with each other; the write lock is taken only when an
// out-of-order append left the series in need of a sort.
func (s *TimeSeries) QueryRangePage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	var cur Cursor
	haveCur := cursor != ""
	if haveCur {
		var err error
		if cur, err = ParseCursor(cursor); err != nil {
			return nil, "", err
		}
	}
	sh := s.seriesShardFor(typeName)
	sh.mu.RLock()
	if !sh.dirty[typeName] {
		out, next := pageRangeLocked(sh, typeName, from, to, limit, cur, haveCur)
		sh.mu.RUnlock()
		return out, next, nil
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sortLocked(sh, typeName)
	out, next := pageRangeLocked(sh, typeName, from, to, limit, cur, haveCur)
	return out, next, nil
}

// pageRangeLocked copies one page of the [from, to] window of a
// sorted series. The caller holds the shard lock (read or write).
func pageRangeLocked(sh *seriesShard, typeName string, from, to time.Time, limit int, cur Cursor, haveCur bool) ([]model.Reading, string) {
	series := sh.byType[typeName]
	lo := sort.Search(len(series), func(i int) bool { return !series[i].Time.Before(from) })
	hi := sort.Search(len(series), func(i int) bool { return series[i].Time.After(to) })
	if lo >= hi {
		return nil, ""
	}
	start, end, next := PageWindow(series[lo:hi], limit, cur, haveCur)
	if start >= end {
		return nil, next
	}
	out := make([]model.Reading, end-start)
	copy(out, series[lo+start:lo+end])
	return out, next
}

// Types returns the sorted sensor-type names present.
func (s *TimeSeries) Types() []string {
	var out []string
	for i := range s.series {
		sh := &s.series[i]
		sh.mu.RLock()
		for t := range sh.byType {
			out = append(out, t)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Evict drops readings older than the retention window relative to
// now and returns how many were removed. A retention of 0 never
// evicts (permanent storage).
func (s *TimeSeries) Evict(now time.Time) int {
	if s.retention <= 0 {
		return 0
	}
	return s.EvictBefore(now.Add(-s.retention))
}

// EvictBefore drops every reading older than cutoff, regardless of the
// configured retention, and returns how many were removed. Unlike
// segment.Store's whole-segment drop, the cut is exact.
func (s *TimeSeries) EvictBefore(cutoff time.Time) int {
	evicted := 0
	for i := range s.series {
		sh := &s.series[i]
		sh.mu.Lock()
		for typ := range sh.byType {
			sortLocked(sh, typ)
			series := sh.byType[typ]
			lo := sort.Search(len(series), func(i int) bool { return !series[i].Time.Before(cutoff) })
			if lo == 0 {
				continue
			}
			evicted += lo
			remaining := make([]model.Reading, len(series)-lo)
			copy(remaining, series[lo:])
			if len(remaining) == 0 {
				delete(sh.byType, typ)
				delete(sh.dirty, typ)
			} else {
				sh.byType[typ] = remaining
			}
		}
		sh.mu.Unlock()
	}
	s.count.Add(int64(-evicted))
	// latest entries are kept even past retention: the newest value
	// of a sensor remains addressable for real-time reads.
	return evicted
}

// Stats implements the store accounting used by node status reports.
func (s *TimeSeries) Stats() Stats {
	series := 0
	for i := range s.series {
		sh := &s.series[i]
		sh.mu.RLock()
		series += len(sh.byType)
		sh.mu.RUnlock()
	}
	count := s.count.Load()
	return Stats{
		Readings:    count,
		Series:      series,
		ApproxBytes: count * approxReadingBytes,
	}
}

func sortLocked(sh *seriesShard, typeName string) {
	if !sh.dirty[typeName] {
		return
	}
	series := sh.byType[typeName]
	sort.SliceStable(series, func(i, j int) bool { return series[i].Time.Before(series[j].Time) })
	sh.dirty[typeName] = false
}
