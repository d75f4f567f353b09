// Package durable is the receive-side durable core every F2C node
// runs, fog and cloud alike: the journal (one wal.Store behind one
// mutex), the node's store, the acceptance path over the node's replay
// filter with its duplicates counter, the recovery driver, and the
// checkpoint, Discard and Close of the pair.
//
// A durable node keeps one log. Its data dir is the journal's
// directory, and the segment store inside it (<Dir>/store) keeps
// segments, a manifest and a memtable, but no WAL: every store append
// runs inside the Journal.Apply of the record that already carries its
// readings (Core.Store), and its op number is that record's position
// among the store-carrying records. A checkpoint writes the op counter
// and the store's recovery section (its latest map and memtable) ahead
// of the node's snapshot body; recovery restores the section, then
// replays the log tail, whose store-carrying records reach the store
// only above the manifest's flushed-op watermark. The one guard is
// here: a store whose manifest is behind the watermark the snapshot
// recorded lost segments the section relies on, and the dir is
// refused untouched. So is a dir written before the journal became the
// store's log (a snapshot without the section, or a store/wal/).
//
// The paper runs the same data life-cycle blocks at every tier with
// different retention, so a node keeps only what differs between
// tiers — its record table and its snapshot body — and hands them to
// the core as functions (Recovery). The core never asks which node is
// calling.
//
// One journal mutex serves both locking styles the nodes use. Write
// appends one record briefly, for a caller that already holds the lock
// of the state the record describes (a fog node's shard lock). Apply
// holds the journal mutex across the append and the state change, so
// a checkpoint, which takes the same mutex, always sees log, store and
// state agree.
package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/store"
	"f2c/internal/wal"
)

// ErrStorageMode refuses a segment store without a journal: the
// journal is the store's log, so a data dir is a journal.
var ErrStorageMode = errors.New("durable: Storage needs Durability: the node journal is the segment store's log")

// Core is one node's receive-side durable state.
type Core struct {
	// Journal is nil on a node without a data dir.
	Journal *Journal
	// Series is the node's store: the segment store inside the data
	// dir, or an in-RAM TimeSeries on a node without one.
	Series   store.Series
	segments *segment.Store
	// background: the store's flusher starts once Recover succeeded
	// (held while it runs, so a refused recovery writes nothing).
	background bool
	replay     *protocol.ReplayFilter
	dups       *metrics.Counter
	// op numbers the store appends of a durable node: the position of
	// the record carrying them among the store-carrying records.
	// Guarded by the journal mutex.
	op uint64
}

// Open opens a node's journal and the segment store inside its data
// dir around the node's replay filter; without a journal the node
// stores in RAM under retention. storage, optional, tunes the segment
// store: its Dir defaults to <journal.Dir>/store, its Retention to
// retention, its Registry and MetricsPrefix to reg and prefix. A
// storage without a journal is refused (ErrStorageMode). reg and prefix
// also name the duplicates counter (prefix + "ingest.duplicates") and
// the best-effort append failures (prefix + "journal.errors").
// Recovery is a second step (Recover): the node first builds the state
// it recovers into around the opened store.
func Open(journal *wal.Config, storage *segment.Options, retention time.Duration, reg *metrics.Registry, prefix string, replay *protocol.ReplayFilter) (*Core, error) {
	c := &Core{replay: replay, dups: reg.Counter(prefix + "ingest.duplicates")}
	if journal == nil {
		if storage != nil {
			return nil, ErrStorageMode
		}
		c.Series = store.NewTimeSeries(retention)
		return c, nil
	}
	st, err := wal.Open(*journal)
	if err != nil {
		return nil, err
	}
	c.Journal = &Journal{store: st, errs: reg.Counter(prefix + "journal.errors")}
	var so segment.Options
	if storage != nil {
		so = *storage
	}
	if so.Dir == "" {
		so.Dir = filepath.Join(journal.Dir, "store")
	}
	if so.Retention == 0 {
		so.Retention = retention
	}
	if so.Registry == nil {
		so.Registry = reg
	}
	if so.MetricsPrefix == "" {
		so.MetricsPrefix = prefix
	}
	c.background, so.NoBackground = !so.NoBackground, true
	if c.segments, err = segment.Open(so); err != nil {
		_ = c.Journal.Close()
		return nil, fmt.Errorf("storage: %w", err)
	}
	c.Series = c.segments
	return c, nil
}

// Recovery is the node-specific half of Recover. Snapshot and Record
// apply what they decode to the node as they read it, through the
// transitions the live path runs after its appends — so there is no
// recovered state beside the node's own to install — and a
// store-carrying record reaches Store as it is read, in log order.
// Neither writes a record or counts a metric: recovered state was
// accounted by its first life.
type Recovery struct {
	// Snapshot applies the node's checkpoint body; Record applies one
	// log record of the tail.
	Snapshot func(data []byte) error
	Record   func(rec []byte) error
	// Settle, optional, runs once after the log: what a node can only
	// decide when it has read the whole tail (a fog node seals the
	// alert windows whose seal records were lost with the crash).
	Settle func() error
	// Checkpoint writes the node's checkpoint through Core.Checkpoint.
	// Recover calls it once Settle is done, and only when the log
	// ended behind the store's flushed segments.
	Checkpoint func() error
}

// snapshotMark opens every snapshot a durable node writes, ahead of
// the op counter and the store's recovery section. A snapshot written
// before the journal became the store's log opens with the node's own
// version byte instead (1 to 4), and is refused.
const snapshotMark = 0xF2

// Recover rebuilds a node from the journal opened by Open: the store
// section and the snapshot body, then the log tail in append order,
// then the node's settle. The segment store's flusher is held until
// it returns: a refused recovery releases the core and leaves the data
// dir as it found it, even after store appends. No-op without a
// journal.
func (c *Core) Recover(r Recovery) (err error) {
	if c.Journal == nil {
		return nil
	}
	defer func() {
		if err != nil {
			c.Discard()
		} else if c.background {
			c.segments.Start()
		}
	}()
	st := c.Journal.store
	if snap := st.Snapshot(); len(snap) > 0 {
		if snap[0] != snapshotMark {
			return fmt.Errorf("the journal in %s was written before it became the segment store's log (its snapshot has no store section); refused, left as it is", st.Dir())
		}
		op, rest, err := wal.ReadUvarint(snap[1:])
		if err != nil {
			return fmt.Errorf("snapshot op counter: %w", err)
		}
		section, body, err := wal.ReadBytes(rest)
		if err != nil {
			return fmt.Errorf("snapshot store section: %w", err)
		}
		cut, err := c.segments.Restore(section)
		if err != nil {
			return err
		}
		if flushed := c.segments.FlushedOp(); flushed < cut {
			return fmt.Errorf("the journal in %s needs its segment store flushed up to op %d, but %s holds up to op %d: the store was deleted or replaced; refused, left as it is", st.Dir(), cut, c.segments.Dir(), flushed)
		}
		c.op = op
		if err := r.Snapshot(body); err != nil {
			return err
		}
	}
	for _, rec := range st.Records() {
		if err := r.Record(rec); err != nil {
			return err
		}
	}
	if r.Settle != nil {
		if err := r.Settle(); err != nil {
			return err
		}
	}
	// A log that lost its tail to a machine crash (appends are not
	// fsynced one by one, segment flushes are) can end behind segments
	// already flushed. New ops must number on above them, or they
	// would be taken for replays; and the numbering must be on disk
	// before the first of them, or the next recovery, counting
	// positions from the snapshot, would number them below again.
	if flushed := c.segments.FlushedOp(); c.op < flushed {
		c.op = flushed
		return r.Checkpoint()
	}
	return nil
}

// Store appends a batch to the node's series. On a durable node it is
// a store op: call it from inside the Journal.Apply of the record that
// carries b — or, recovering, from Recovery.Record as it reads a
// store-carrying record — so that its op is the record's position
// among the store-carrying records. A replayed op the segments already
// hold reaches only the store's latest map.
func (c *Core) Store(b *model.Batch) error {
	if c.Journal == nil {
		return c.Series.Append(b)
	}
	c.op++
	return c.Series.AppendSeq(b, c.op)
}

// Checkpoint writes the node's snapshot — the op counter and the
// segment store's recovery section, then the body encode appends —
// and rotates the log. encode runs under the journal mutex, which
// every store append holds, so section, body and log cut agree. No-op
// without a journal.
func (c *Core) Checkpoint(encode func(dst []byte) ([]byte, error)) error {
	return c.Journal.Checkpoint(func() ([]byte, error) {
		dst := wal.AppendUvarint([]byte{snapshotMark}, c.op)
		dst = wal.AppendBytes(dst, c.segments.AppendSection(nil))
		return encode(dst)
	})
}

// Accept is the one receive path for everything that arrives under a
// delivery identity — batches, summary and alert pushes, migration
// chunks: a copy of a delivery that already landed is acknowledged
// without applying it, and check-and-mark is atomic
// (protocol.ReplayFilter.Accept). The filter is keyed by the
// delivery's origin, not the hop that carried it, so a copy arriving
// through a sibling relay and a direct retry dedupe against each
// other.
func (c *Core) Accept(origin string, seq uint64, apply func() error) ([]byte, error) {
	dup, err := c.replay.Accept(origin, seq, apply)
	if err != nil {
		return nil, err
	}
	if dup {
		c.dups.Inc()
	}
	return []byte("ok"), nil
}

// Duplicates reports how many duplicate deliveries Accept suppressed.
func (c *Core) Duplicates() int64 { return c.dups.Value() }

// Discard releases the journal and the segment store with crash
// semantics: nothing is checkpointed or flushed, so the on-disk state
// stays exactly as the last append left it.
func (c *Core) Discard() {
	_ = c.Journal.Close()
	if c.segments != nil {
		c.segments.Discard()
	}
}

// Close writes a final checkpoint with the node's checkpoint, then
// closes the journal and the segment store. Safe to call twice.
func (c *Core) Close(checkpoint func() error) error {
	err := checkpoint()
	if cerr := c.Journal.Close(); err == nil {
		err = cerr
	}
	if c.segments != nil {
		if cerr := c.segments.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Journal is a node's write-ahead log: a wal.Store whose mutex
// serializes appends and excludes them during checkpoints. Every
// method is safe on a nil Journal, a node without one: writes succeed
// without writing and Apply only applies. A closed Journal refuses
// writes, so acceptance gates fail on it.
type Journal struct {
	mu     sync.Mutex
	store  *wal.Store
	buf    []byte // record-encode scratch, reused under mu
	closed bool
	errs   *metrics.Counter
}

var errClosed = errors.New("journal closed")

// Write appends one record, built by fill into the reused scratch.
func (j *Journal) Write(fill func(buf []byte) []byte) error { return j.Apply(fill, noop) }

func noop() error { return nil }

// Note appends a best-effort record: one whose loss degrades toward
// re-delivery, never toward loss, so its failure refuses nothing. A
// failed append is counted in <prefix>journal.errors instead.
func (j *Journal) Note(fill func(buf []byte) []byte) {
	if err := j.Write(fill); err != nil {
		j.errs.Inc()
	}
}

// WritePayload appends a record that is one opaque document.
func (j *Journal) WritePayload(rec byte, doc []byte) error {
	return j.Write(func(buf []byte) []byte { return AppendPayload(buf, rec, doc) })
}

// AppendPayload encodes a record that is one opaque document: the
// record byte, then the document, uvarint-framed.
func AppendPayload(buf []byte, rec byte, doc []byte) []byte {
	return wal.AppendBytes(append(buf, rec), doc)
}

// Apply appends one record, built by fill into the reused scratch,
// and once it landed runs apply, both under the journal mutex. A
// failed append applies nothing.
func (j *Journal) Apply(fill func(buf []byte) []byte, apply func() error) error {
	if j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.closed {
			return errClosed
		}
		j.buf = fill(j.buf[:0])
		if err := j.store.Append(j.buf); err != nil {
			return err
		}
	}
	return apply()
}

// CheckpointDue reports how many records the log holds past the last
// snapshot, and whether that crossed the automatic threshold.
func (j *Journal) CheckpointDue() (appends int, due bool) {
	if j == nil {
		return 0, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, false
	}
	t := j.store.SnapshotThreshold()
	appends = j.store.AppendsSinceSnapshot()
	return appends, t > 0 && appends >= t
}

// Checkpoint writes the snapshot encode builds and rotates the log.
// encode runs under the journal mutex, so no record races the
// rotation. No-op on a nil or closed journal.
func (j *Journal) Checkpoint(encode func() ([]byte, error)) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	data, err := encode()
	if err != nil {
		return err
	}
	return j.store.WriteSnapshot(data)
}

// Close syncs and closes the log; later writes are refused.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.store.Close()
}
