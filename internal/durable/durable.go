// Package durable is the receive-side durable core every F2C node
// runs, fog and cloud alike: the journal (one wal.Store behind one
// mutex), the segment store opened beside it, the acceptance path over
// the node's replay filter with its duplicates counter, the recovery
// driver, and the checkpoint, Discard and Close of the pair.
//
// The paper runs the same data life-cycle blocks at every tier with
// different retention, so a node keeps only what differs between
// tiers — its record table, its snapshot body and its storage-mode
// check — and hands them to the core as functions (Recovery). The core
// never asks which node is calling.
//
// One journal mutex serves both locking styles the nodes use. Write
// appends one record briefly, for a caller that already holds the lock
// of the state the record describes (a fog node's shard lock). Apply
// holds the journal mutex across the append and the state change (the
// cloud), so a checkpoint, which takes the same mutex, always sees log
// and state agree.
package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"f2c/internal/metrics"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/wal"
)

// Core is one node's receive-side durable state. Journal and Segments
// are nil on a node that runs without them.
type Core struct {
	Journal  *Journal
	Segments *segment.Store
	replay   *protocol.ReplayFilter
	dups     *metrics.Counter
	// fresh reports that Open created the segment store's directory, so
	// the store cannot hold what an existing journal says was stored.
	fresh bool
}

// Open opens a node's segment store (storage) and journal (journal),
// either nil to leave that half out, around the node's replay filter.
// reg and prefix name the duplicates counter (prefix +
// "ingest.duplicates") and are the segment store's Registry and
// MetricsPrefix when those are zero. Recovery is a second step
// (Recover): the node first builds the state it recovers into around
// the opened store.
func Open(journal *wal.Config, storage *segment.Options, reg *metrics.Registry, prefix string, replay *protocol.ReplayFilter) (*Core, error) {
	c := &Core{replay: replay, dups: reg.Counter(prefix + "ingest.duplicates")}
	if storage != nil {
		so := *storage
		if so.Registry == nil {
			so.Registry = reg
		}
		if so.MetricsPrefix == "" {
			so.MetricsPrefix = prefix
		}
		_, statErr := os.Stat(so.Dir)
		s, err := segment.Open(so)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		c.Segments, c.fresh = s, os.IsNotExist(statErr)
	}
	if journal != nil {
		st, err := wal.Open(*journal)
		if err != nil {
			c.abandon()
			return nil, err
		}
		c.Journal = &Journal{store: st}
	}
	return c, nil
}

// Recovery is the node-specific half of the recovery driver.
type Recovery struct {
	// Snapshot decodes the checkpoint; Record replays one log record
	// of the tail, the same transition the live path journaled.
	Snapshot func(data []byte) error
	Record   func(rec []byte) error
	// Check describes what the journal holds that the segment store
	// cannot have — the directory was written without one, or its
	// store/ was removed — and returns nil when the two agree. fresh
	// reports that Open created the store's directory.
	Check func(fresh bool) error
	// Install moves the recovered state, replay marks included, into
	// the node. Metrics are not re-counted: recovered state was
	// accounted by its first life.
	Install func() error
}

// Recover rebuilds a node from the journal opened by Open: the
// snapshot, then the log tail in append order, then the storage-mode
// check, then installation. A refused recovery releases the core and
// leaves the data dir as it found it. No-op without a journal.
func (c *Core) Recover(r Recovery) (err error) {
	if c.Journal == nil {
		return nil
	}
	defer func() {
		if err != nil {
			c.abandon()
		}
	}()
	st := c.Journal.store
	if err := r.Snapshot(st.Snapshot()); err != nil {
		return err
	}
	for _, rec := range st.Records() {
		if err := r.Record(rec); err != nil {
			return err
		}
	}
	if err := r.Check(c.fresh); err != nil {
		return fmt.Errorf("storage mode mismatch: the journal in %s %v — the directory was written without a segment store, or its store/ was removed; reopen it the way it was written", st.Dir(), err)
	}
	return r.Install()
}

// abandon releases what Open opened without writing anything; a
// segment store directory Open created is removed again.
func (c *Core) abandon() {
	c.Discard()
	if c.fresh {
		_ = os.RemoveAll(c.Segments.Dir())
	}
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
	if c.Segments != nil {
		c.Segments.Discard()
	}
}

// Close writes a final checkpoint with the node's checkpoint, then
// closes the journal and the segment store. Safe to call twice.
func (c *Core) Close(checkpoint func() error) error {
	err := checkpoint()
	if cerr := c.Journal.Close(); err == nil {
		err = cerr
	}
	if c.Segments != nil {
		if cerr := c.Segments.Close(); err == nil {
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
}

var errClosed = errors.New("journal closed")

// Write appends one record, built by fill into the reused scratch.
func (j *Journal) Write(fill func(buf []byte) []byte) error { return j.Apply(fill, noop) }

func noop() error { return nil }

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
