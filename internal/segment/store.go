package segment

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/store"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("segment: store closed")

// errStopped aborts an in-flight flush or compaction when the store
// is shutting down, leaving the on-disk state wherever the stage
// boundary fell — exactly the crash signatures recovery is built for.
var errStopped = errors.New("segment: store closing")

// Defaults for zero Options fields.
const (
	DefaultMemtableBytes      = 4 << 20
	DefaultBlockReadings      = 2048
	DefaultCompactMinSegments = 4
	// targetSegmentBytes is the compaction goal: a segment at or above
	// it is left alone.
	targetSegmentBytes = 16 << 20
	// maxCompactInputs bounds one compaction round's merge width.
	maxCompactInputs = 8
	// runawayFactor: an appender finding the memtable this many caps
	// over budget flushes inline instead of waiting for the
	// background flusher, so RSS stays bounded even if ingest
	// outruns it.
	runawayFactor = 8
)

// Options configures a Store.
type Options struct {
	// Dir is the store's directory (created if missing); see the
	// package doc for its layout.
	Dir string
	// Retention drops whole segments older than the window; 0 keeps
	// everything (the cloud tier).
	Retention time.Duration
	// MemtableBytes caps the in-RAM memtable before a flush is
	// scheduled. Zero selects DefaultMemtableBytes.
	MemtableBytes int64
	// BlockReadings caps readings per columnar block. Zero selects
	// DefaultBlockReadings.
	BlockReadings int
	// CompactMinSegments is the fewest segments of comparable size one
	// compaction round merges. Zero selects
	// DefaultCompactMinSegments.
	CompactMinSegments int
	// Codec compresses segment blocks. Zero selects CodecFlate.
	Codec aggregate.Codec
	// NoBackground holds the flusher goroutine until Start: tests
	// that never call it drive Flush and Compact explicitly, and a
	// recovering node starts it once its journal replay succeeded, so
	// a refused recovery writes nothing.
	NoBackground bool
	// Registry receives storage metrics under MetricsPrefix; nil
	// allocates a private registry.
	Registry *metrics.Registry
	// MetricsPrefix namespaces this instance's metrics, typically
	// "<node id>.".
	MetricsPrefix string
}

func (o *Options) withDefaults() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = DefaultMemtableBytes
	}
	if o.BlockReadings <= 0 {
		o.BlockReadings = DefaultBlockReadings
	}
	if o.CompactMinSegments <= 0 {
		o.CompactMinSegments = DefaultCompactMinSegments
	}
	if o.Codec == 0 {
		o.Codec = aggregate.CodecFlate
	}
}

// Store is the tiered store: a memtable in front of immutable
// mmap-served segments. It keeps no log: a durable node's journal is
// its log (see AppendSeq and the recovery section). Safe for
// concurrent use. It implements store.Series.
type Store struct {
	o Options

	// mu guards the source set (mem, flushing, segs) and closed;
	// appends hold it shared, swaps/publishes hold it exclusively.
	mu       sync.RWMutex
	mem      *memtable
	flushing *memtable
	segs     []*segment
	closed   bool

	// maintMu serializes flush, compaction, and retention — the
	// manifest writers.
	maintMu  sync.Mutex
	man      manifest
	frozenOp uint64 // opCounter at the flushing-memtable swap

	// opCounter is the highest op the store has taken; plain Appends
	// number themselves from it.
	opCounter atomic.Uint64
	flushedOp uint64 // ops folded into published segments; guarded by mu

	latestMu sync.RWMutex
	latest   map[string]model.Reading

	readings atomic.Int64

	stopping atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	flushCh  chan struct{}
	done     chan struct{}
	bg       bool // the flusher runs; guarded by mu

	sm *metrics.StorageMetrics

	// failpoint, set by tests, injects a crash at a named stage
	// boundary of flush/compaction.
	failpoint func(stage string) error
}

var _ store.Series = (*Store)(nil)

// Open opens a store in o.Dir, recovering its segments from the
// manifest; the memtable starts empty, and a node refills it from its
// journal (Restore, then AppendSeq for the log tail). Orphan segment
// files from interrupted maintenance are deleted. The directory is
// created by the first flush, so a store that is opened and refused
// leaves none behind. A directory holding a store WAL (wal/) was
// written before the node journal became the store's log and is
// refused untouched.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("segment: Options.Dir is required")
	}
	o.withDefaults()
	if _, err := os.Stat(filepath.Join(o.Dir, "wal")); err == nil {
		return nil, fmt.Errorf("segment: %s holds a store WAL (wal/): it was written before the node journal became the store's log; refused, left as it is", o.Dir)
	}
	man, err := readManifest(o.Dir)
	if err != nil {
		return nil, err
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{
		o:       o,
		man:     man,
		mem:     newMemtable(),
		latest:  make(map[string]model.Reading),
		stopCh:  make(chan struct{}),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
		sm:      reg.Storage(o.MetricsPrefix),
	}
	live := make(map[string]bool, len(man.Segments))
	for _, name := range man.Segments {
		g, err := openSegmentFile(filepath.Join(o.Dir, name))
		if err != nil {
			s.releaseSegs()
			return nil, err
		}
		s.segs = append(s.segs, g)
		s.readings.Add(g.readings)
		live[name] = true
	}
	if s.man.NextSeg == 0 {
		s.man.NextSeg = 1
	}
	if err := s.sweepOrphans(live); err != nil {
		s.releaseSegs()
		return nil, err
	}
	s.flushedOp = man.FlushedOp
	s.opCounter.Store(man.FlushedOp)
	s.updateStorageGauges()
	if !o.NoBackground {
		s.Start()
	}
	return s, nil
}

// Start runs the background flusher of a store opened with
// NoBackground; a flush the memtable's cap asked for while it was held
// runs first. No-op once started or closing.
func (s *Store) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bg || s.stopping.Load() {
		return
	}
	s.bg = true
	go s.run()
}

// releaseSegs drops the store's references during a failed Open.
func (s *Store) releaseSegs() {
	for _, g := range s.segs {
		g.release()
	}
	s.segs = nil
}

// sweepOrphans deletes segment leftovers (.seg not in the manifest,
// any .tmp) from interrupted flushes and compactions, and advances
// NextSeg past any number ever used so a recovered store cannot
// collide with a file a crashed maintenance pass left behind.
func (s *Store) sweepOrphans(live map[string]bool) error {
	entries, err := os.ReadDir(s.o.Dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == manifestName || live[name] {
			continue
		}
		if n, ok := segFileNumber(name); ok && n >= s.man.NextSeg {
			s.man.NextSeg = n + 1
		}
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(s.o.Dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// segFileNumber parses the sequence number of "NNNNNNNN.seg" (with
// or without a ".tmp" suffix).
func segFileNumber(name string) (uint64, bool) {
	name = strings.TrimSuffix(name, ".tmp")
	name = strings.TrimSuffix(name, ".seg")
	n, err := strconv.ParseUint(name, 10, 64)
	return n, err == nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.o.Dir }

// Retention returns the configured retention window.
func (s *Store) Retention() time.Duration { return s.o.Retention }

// FlushedOp returns the manifest watermark: every op at or below it is
// inside a segment.
func (s *Store) FlushedOp() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flushedOp
}

// Append stores every reading of the batch under the store's own next
// op. Nothing logs it: it is volatile until a flush writes it into a
// segment.
func (s *Store) Append(b *model.Batch) error { return s.AppendSeq(b, 0) }

// AppendSeq stores every reading of the batch as op, the position of
// the journal record that carries it (0 numbers it as Append does).
// Callers pass increasing ops, serialized — a node under its journal
// mutex. An op at or below FlushedOp is already inside a segment: it
// is a recovering node replaying its log, and only the latest map
// takes it, in log order.
func (s *Store) AppendSeq(b *model.Batch, op uint64) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("segment append: %w", err)
	}
	nb := normalizeBatch(b)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if op == 0 {
		op = s.opCounter.Add(1)
	} else if op > s.opCounter.Load() {
		s.opCounter.Store(op)
	}
	if op <= s.flushedOp {
		s.updateLatest(nb)
		s.mu.RUnlock()
		return nil
	}
	mem, bg := s.mem, s.bg
	mem.add(op, nb)
	s.updateLatest(nb)
	s.readings.Add(int64(len(nb.Readings)))
	s.mu.RUnlock()

	bytes, _ := mem.footprint()
	s.sm.MemtableBytes.Set(bytes)
	if bytes >= s.o.MemtableBytes {
		select {
		case s.flushCh <- struct{}{}:
		default:
		}
		if bg && bytes >= runawayFactor*s.o.MemtableBytes {
			_ = s.Flush()
		}
	}
	return nil
}

// updateLatest applies a batch to the per-sensor latest map with the
// same tie rule as store.TimeSeries (>= wins).
func (s *Store) updateLatest(b *model.Batch) {
	s.latestMu.Lock()
	for i := range b.Readings {
		r := b.Readings[i]
		if cur, ok := s.latest[r.SensorID]; !ok || !r.Time.Before(cur.Time) {
			s.latest[r.SensorID] = r
		}
	}
	s.latestMu.Unlock()
}

// Latest returns the most recent reading of a sensor.
func (s *Store) Latest(sensorID string) (model.Reading, bool) {
	s.latestMu.RLock()
	defer s.latestMu.RUnlock()
	r, ok := s.latest[sensorID]
	return r, ok
}

// sources atomically snapshots the query sources: both memtables and
// a referenced segment list. The segment references keep mappings
// alive across a concurrent compaction or retention drop.
func (s *Store) sources() (mem, flushing *memtable, segs []*segment, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, nil, nil, ErrClosed
	}
	segs = make([]*segment, len(s.segs))
	copy(segs, s.segs)
	for _, g := range segs {
		g.acquire()
	}
	return s.mem, s.flushing, segs, nil
}

// clampNs converts a query bound to unix nanos, clamping times
// outside the representable window instead of overflowing.
func clampNs(t time.Time) int64 {
	if y := t.Year(); y < 1678 {
		return math.MinInt64
	} else if y > 2261 {
		return math.MaxInt64
	}
	return t.UnixNano()
}

// QueryRange returns readings of a type within [from, to] in
// canonical time order, merged across the memtable and every
// segment. The returned slice is a copy.
func (s *Store) QueryRange(typeName string, from, to time.Time) []model.Reading {
	out, err := s.queryMerged(typeName, clampNs(from), clampNs(to), 0)
	if err != nil {
		return nil
	}
	return out
}

// QueryRangePage returns one bounded page of readings of a type
// within [from, to] plus the resume cursor — the same (T, Skip)
// contract as store.TimeSeries.QueryRangePage, and the cursor stays
// valid across a memtable flush or a compaction because every source
// serves the one canonical order. The merge stops skip+limit+1
// readings in, so a page over years of segments reads a handful of
// blocks, not the range.
func (s *Store) QueryRangePage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	var cur store.Cursor
	haveCur := cursor != ""
	if haveCur {
		var err error
		if cur, err = store.ParseCursor(cursor); err != nil {
			return nil, "", err
		}
	}
	fromNs, toNs := clampNs(from), clampNs(to)
	if haveCur && cur.T > fromNs {
		fromNs = cur.T
	}
	fetchN := 0
	if limit > 0 {
		fetchN = cur.Skip + limit + 1
	}
	merged, err := s.queryMerged(typeName, fromNs, toNs, fetchN)
	if err != nil {
		return nil, "", err
	}
	start, end, next := store.PageWindow(merged, limit, cur, haveCur)
	if start >= end {
		return nil, next, nil
	}
	return merged[start:end:end], next, nil
}

// maxPresize caps how many readings a query result is presized to
// from the index alone, so a damaged index cannot demand an arbitrary
// allocation; larger results grow by append.
const maxPresize = 1 << 20

// queryMerged merges [fromNs, toNs] of one type from every source into
// canonical order — the first max readings of it when max > 0 — in a
// slice the caller owns, presized from the index's block counts.
func (s *Store) queryMerged(typeName string, fromNs, toNs int64, max int) ([]model.Reading, error) {
	if fromNs > toNs {
		return nil, nil
	}
	mem, flushing, segs, err := s.sources()
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, g := range segs {
			g.release()
		}
	}()
	m := merger{fromNs: fromNs, toNs: toNs}
	size := 0
	for _, g := range segs {
		blocks := g.blocksIn(typeName, fromNs, toNs)
		if len(blocks) == 0 {
			continue
		}
		m.cs = append(m.cs, blockCursor{g: g, blocks: blocks})
		for _, b := range blocks {
			size += b.estimate(fromNs, toNs)
		}
	}
	for _, mt := range []*memtable{flushing, mem} {
		if mt == nil {
			continue
		}
		if rs := mt.fetch(typeName, fromNs, toNs, max); len(rs) > 0 {
			m.cs = append(m.cs, blockCursor{buf: rs})
			size += len(rs)
		}
	}
	switch {
	case len(m.cs) == 0:
		return nil, nil
	case len(m.cs) == 1 && m.cs[0].g == nil:
		return m.cs[0].buf, nil // the memtable's copy is already private
	}
	if max > 0 && size > max {
		size = max
	}
	size = min(size, maxPresize)
	return m.appendTo(make([]model.Reading, 0, size), max)
}

// Types returns the sorted union of type names across all tiers.
func (s *Store) Types() []string {
	mem, flushing, segs, err := s.sources()
	if err != nil {
		return nil
	}
	defer func() {
		for _, g := range segs {
			g.release()
		}
	}()
	set := make(map[string]bool)
	for _, g := range segs {
		for typ := range g.byType {
			set[typ] = true
		}
	}
	for _, mt := range []*memtable{flushing, mem} {
		if mt == nil {
			continue
		}
		for _, typ := range mt.typeNames() {
			set[typ] = true
		}
	}
	out := make([]string, 0, len(set))
	for typ := range set {
		out = append(out, typ)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes store contents across memtable and segments.
func (s *Store) Stats() store.Stats {
	mem, flushing, segs, err := s.sources()
	if err != nil {
		return store.Stats{}
	}
	defer func() {
		for _, g := range segs {
			g.release()
		}
	}()
	var bytes int64
	set := make(map[string]bool)
	for _, g := range segs {
		bytes += g.size()
		for typ := range g.byType {
			set[typ] = true
		}
	}
	for _, mt := range []*memtable{flushing, mem} {
		if mt == nil {
			continue
		}
		mb, _ := mt.footprint()
		bytes += mb
		for _, typ := range mt.typeNames() {
			set[typ] = true
		}
	}
	return store.Stats{Readings: s.readings.Load(), Series: len(set), ApproxBytes: bytes}
}

// SegmentCount returns the number of live segments. Kept for tests:
// fognode's and cloud's TestOneLogDataDir and store's
// TestSegmentPageWalkStraddlesFlush call it.
func (s *Store) SegmentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}

// run is the background flusher: a cap-triggered flush, then
// compaction rounds until none finds a tier to merge — one flush can
// complete a tier whose output completes the next. Appends never wait
// on it — the memtable keeps absorbing while a flush writes, which is
// what keeps the PR 6 backpressure plane free of storage stalls.
// Failures are counted by Flush and Compact; the next trigger retries.
func (s *Store) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.flushCh:
			if s.Flush() != nil {
				continue
			}
			for {
				if n, err := s.Compact(); n == 0 || err != nil {
					break
				}
			}
		}
	}
}

// Flush freezes the memtable, writes it as a segment, commits it in
// the manifest together with the flushed-op watermark, and publishes
// it to queries. The frozen memtable remains a query source until the
// segment is published, so a page walk straddling the flush sees
// every reading exactly once.
func (s *Store) Flush() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	err := s.flushLocked()
	if maintenanceFailed(err) {
		s.sm.FlushErrors.Inc()
	}
	return err
}

// maintenanceFailed tells a flush or compaction that failed from one
// that was merely cut short by shutdown.
func maintenanceFailed(err error) bool {
	return err != nil && !errors.Is(err, errStopped) && !errors.Is(err, ErrClosed)
}

func (s *Store) flushLocked() error {
	if s.stopping.Load() {
		return errStopped
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.flushing == nil {
		if _, count := s.mem.footprint(); count == 0 {
			s.mu.Unlock()
			return nil
		}
		s.flushing = s.mem
		s.mem = newMemtable()
		// mu excludes appenders, so opCounter is quiescent here.
		s.frozenOp = s.opCounter.Load()
	}
	frozen := s.flushing
	frozenOp := s.frozenOp
	s.mu.Unlock()

	name, g, err := s.writeSegment("flush", func(w *segmentWriter) error {
		for _, run := range frozen.sortedRuns() {
			if err := w.add(run.typ, run.readings); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	man := s.man
	man.FlushedOp = frozenOp
	man.Segments = append(append([]string(nil), s.man.Segments...), name)
	if err := writeManifest(s.o.Dir, man); err != nil {
		g.release()
		return err
	}
	s.man = man
	if err := s.checkpointAbort("flush:manifest-written"); err != nil {
		g.release()
		return err
	}

	s.mu.Lock()
	s.segs = append(s.segs, g)
	s.flushing = nil
	s.flushedOp = frozenOp
	s.mu.Unlock()
	s.updateStorageGauges()
	return nil
}

// writeSegment streams the next segment file through fill, makes it
// durable (fsync, rename, directory fsync) and opens it. Used by flush
// and compaction; kind names the failpoint stages. kind:encode falls
// after the last block frame and before the index and footer, so a
// failpoint there leaves what a crash mid-stream leaves: a .tmp of
// frames with no footer, which the next Open sweeps. A round that
// fails or is stopped while streaming removes its partial .tmp.
func (s *Store) writeSegment(kind string, fill func(w *segmentWriter) error) (string, *segment, error) {
	seq := s.man.NextSeg
	name := fmt.Sprintf("%08d.seg", seq)
	path := filepath.Join(s.o.Dir, name)
	if err := os.MkdirAll(s.o.Dir, 0o755); err != nil {
		return "", nil, err
	}
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", nil, err
	}
	if err := s.streamSegment(f, kind, fill); err != nil {
		f.Close()
		if s.failpoint == nil { // a failpoint's abort stands for a crash: its torso stays
			os.Remove(path + ".tmp")
		}
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return "", nil, err
	}
	if err := syncDir(s.o.Dir); err != nil {
		return "", nil, err
	}
	if err := s.checkpointAbort(kind + ":segment-written"); err != nil {
		return "", nil, err
	}
	g, err := openSegmentFile(path)
	if err != nil {
		return "", nil, err
	}
	s.man.NextSeg = seq + 1
	return name, g, nil
}

// streamSegment writes and fsyncs one segment image into f.
func (s *Store) streamSegment(f *os.File, kind string, fill func(w *segmentWriter) error) error {
	out := bufio.NewWriterSize(f, 64<<10)
	w, err := newSegmentWriter(out, s.o.Codec, s.o.BlockReadings)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		return err
	}
	if err := w.flushPending(); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if err := s.checkpointAbort(kind + ":encode"); err != nil {
		return err
	}
	if err := w.finish(); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// checkpointAbort aborts maintenance at a stage boundary when the
// store is stopping (leaving a recoverable on-disk state) or when a
// test failpoint injects a crash there.
func (s *Store) checkpointAbort(stage string) error {
	if s.failpoint != nil {
		if err := s.failpoint(stage); err != nil {
			return err
		}
	}
	if s.stopping.Load() {
		return errStopped
	}
	return nil
}

// Compact runs one size-tiered compaction round and returns how many
// segments it merged into one (0 when no tier is ready). Callers
// wanting quiescence repeat it until it returns 0, as the background
// loop does. Readers holding references to the replaced segments keep
// streaming from the unlinked files until they release.
func (s *Store) Compact() (int, error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	n, err := s.compactLocked()
	if maintenanceFailed(err) {
		s.sm.CompactErrors.Inc()
	}
	return n, err
}

// pickTier chooses one round's inputs among segs: segments below
// target, at least minWidth and at most maxCompactInputs of them,
// adjacent in size order, the largest no larger than the others
// together. So a segment is only ever rewritten along with at least
// its own size in other inputs: every rewrite at least doubles the
// segment a byte sits in, a byte is rewritten O(log(target/flush))
// times, and the segments no round will take grow geometrically in
// size, which bounds their number the same way. Of the qualifying
// stretches the one reaching the largest segment wins.
func pickTier(segs []*segment, target int64, minWidth int) []*segment {
	var cands []*segment
	for _, g := range segs {
		if g.size() < target {
			cands = append(cands, g)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].size() < cands[j].size() })
	var tier []*segment
	var others int64 // size of cands[lo:hi]
	lo := 0
	for hi, g := range cands {
		if hi-lo == maxCompactInputs {
			others -= cands[lo].size()
			lo++
		}
		if hi+1-lo >= minWidth && g.size() <= others {
			tier = cands[lo : hi+1]
		}
		others += g.size()
	}
	return tier
}

func (s *Store) compactLocked() (int, error) {
	if s.stopping.Load() {
		return 0, errStopped
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	cands := pickTier(s.segs, targetSegmentBytes, s.o.CompactMinSegments)
	for _, g := range cands {
		g.acquire()
	}
	s.mu.RUnlock()
	if len(cands) == 0 {
		return 0, nil
	}
	defer func() {
		for _, g := range cands {
			g.release()
		}
	}()

	name, g, err := s.writeSegment("compact", func(w *segmentWriter) error {
		return s.mergeInto(w, cands)
	})
	if err != nil {
		return 0, err
	}
	replaced := make(map[*segment]bool, len(cands))
	var bytesIn int64
	for _, c := range cands {
		replaced[c] = true
		bytesIn += c.size()
	}
	man := s.man
	man.Segments = nil
	for _, old := range s.segs {
		if !replaced[old] {
			man.Segments = append(man.Segments, filepath.Base(old.path))
		}
	}
	man.Segments = append(man.Segments, name)
	if err := writeManifest(s.o.Dir, man); err != nil {
		g.release()
		return 0, err
	}
	s.man = man
	if err := s.checkpointAbort("compact:manifest-written"); err != nil {
		g.release()
		return 0, err
	}

	s.mu.Lock()
	keep := s.segs[:0:0]
	for _, old := range s.segs {
		if !replaced[old] {
			keep = append(keep, old)
		}
	}
	s.segs = append(keep, g)
	s.mu.Unlock()
	for _, c := range cands {
		_ = os.Remove(c.path)
		c.release() // the store's own reference
	}
	s.sm.Compactions.Inc()
	s.sm.CompactionBytesIn.Add(bytesIn)
	s.sm.CompactionBytesOut.Add(g.size())
	s.updateStorageGauges()
	return len(cands), nil
}

// mergeInto streams the inputs' readings into w, type by type, through
// a k-way merge that holds one decoded block per input. A block that
// is already full, that no other input reaches into and that lands on
// a block boundary of the output is not decoded at all: its frame is
// checksummed and copied as it is.
func (s *Store) mergeInto(w *segmentWriter, inputs []*segment) error {
	typeSet := make(map[string]bool)
	for _, g := range inputs {
		for typ := range g.byType {
			typeSet[typ] = true
		}
	}
	types := make([]string, 0, len(typeSet))
	for typ := range typeSet {
		types = append(types, typ)
	}
	sort.Strings(types)

	var block []model.Reading // decode scratch for whole-block runs
	for _, typ := range types {
		m := merger{fromNs: math.MinInt64, toNs: math.MaxInt64}
		for _, g := range inputs {
			if blocks := g.byType[typ]; len(blocks) > 0 {
				m.cs = append(m.cs, blockCursor{g: g, blocks: blocks})
			}
		}
		for {
			if s.stopping.Load() {
				return errStopped
			}
			run, ok, err := m.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			switch {
			case run.rs != nil:
				err = w.add(typ, run.rs)
			case run.blk.count == w.blockReadings && w.aligned(typ):
				var frame []byte
				if frame, err = run.g.frame(run.blk); err == nil {
					err = w.copyFrame(run.blk, frame)
				}
			default:
				if block, err = run.g.appendBlock(block[:0], run.blk, math.MinInt64, math.MaxInt64, 0); err == nil {
					err = w.add(typ, block)
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Evict enforces retention by dropping whole segments whose newest
// reading is older than the window — a manifest rewrite plus
// unlinks, independent of how much history is stored. Returns the
// number of readings dropped. Memtable contents are always younger
// than any realistic retention window (they flush at the cap), so
// only segments are considered.
func (s *Store) Evict(now time.Time) int {
	if s.o.Retention <= 0 {
		return 0
	}
	return s.EvictBefore(now.Add(-s.o.Retention))
}

// EvictBefore drops whole segments whose newest reading is older than
// an explicit cutoff, regardless of the configured retention — the
// cloud's data-destruction phase, where the expiry instant is a
// per-request policy decision rather than a rolling window. Same
// whole-segment granularity as Evict: a segment straddling the cutoff
// survives intact.
func (s *Store) EvictBefore(before time.Time) int {
	cutoff := clampNs(before)
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0
	}
	var expired []*segment
	for _, g := range s.segs {
		if g.maxT < cutoff {
			expired = append(expired, g)
		}
	}
	s.mu.RUnlock()
	if len(expired) == 0 {
		return 0
	}
	dead := make(map[*segment]bool, len(expired))
	var dropped int64
	for _, g := range expired {
		dead[g] = true
		dropped += g.readings
	}
	man := s.man
	man.Segments = nil
	for _, old := range s.segs {
		if !dead[old] {
			man.Segments = append(man.Segments, filepath.Base(old.path))
		}
	}
	if err := writeManifest(s.o.Dir, man); err != nil {
		return 0
	}
	s.man = man
	s.mu.Lock()
	keep := s.segs[:0:0]
	for _, old := range s.segs {
		if !dead[old] {
			keep = append(keep, old)
		}
	}
	s.segs = keep
	s.mu.Unlock()
	for _, g := range expired {
		_ = os.Remove(g.path)
		g.release()
	}
	s.readings.Add(-dropped)
	s.sm.ExpiredSegments.Add(int64(len(expired)))
	s.updateStorageGauges()
	return int(dropped)
}

// updateStorageGauges refreshes the segment/memtable gauges.
func (s *Store) updateStorageGauges() {
	s.mu.RLock()
	var segBytes, memBytes int64
	n := len(s.segs)
	for _, g := range s.segs {
		segBytes += g.size()
	}
	b, _ := s.mem.footprint()
	memBytes += b
	if s.flushing != nil {
		b, _ := s.flushing.footprint()
		memBytes += b
	}
	s.mu.RUnlock()
	s.sm.Segments.Set(int64(n))
	s.sm.SegmentBytes.Set(segBytes)
	s.sm.MemtableBytes.Set(memBytes)
}

// Close stops the background flusher (aborting any in-flight
// maintenance at its next stage boundary) and unmaps segments. The
// memtable is not flushed: the node's journal holds it (its snapshot's
// recovery section and its log tail) and refills it after the next
// Open, so clean shutdowns don't litter tiny segments.
func (s *Store) Close() error {
	s.stopping.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.RLock()
	bg := s.bg
	s.mu.RUnlock()
	if bg {
		<-s.done
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	segs := s.segs
	s.segs = nil
	s.mu.Unlock()
	for _, g := range segs {
		g.release()
	}
	return nil
}

// Discard is Close for crash simulation and teardown: it abandons
// in-flight maintenance exactly as Close does and never flushes —
// whatever the page cache holds is what recovery will see.
func (s *Store) Discard() { _ = s.Close() }
