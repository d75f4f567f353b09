package segment

import (
	"fmt"

	"f2c/internal/model"
	"f2c/internal/sensor"
	"f2c/internal/wal"
)

// The store keeps no log of its own: a durable node's journal is its
// log, and every op number is the position of the journal record that
// carried the batch. What the journal cannot rebuild from its tail is
// the state at its last checkpoint, so the checkpoint carries the
// store's recovery section:
//
//	[.] flushedOp uvarint — the manifest watermark at the cut
//	[.] latest count uvarint, then per sensor:
//	    sensor id string, one-reading columnar batch
//	[.] op count uvarint, then per op: op uvarint, columnar batch
//
// The ops are every memtable op above the watermark: the live memtable
// and the one being flushed, at most. Restore applies an op only when
// it is above the reopened manifest's FlushedOp — anything at or below
// it is already inside a listed segment — and the journal tail then
// replays through AppendSeq under the same rule, which is the
// exactly-once guarantee across crashes at any stage of a flush.

// AppendSection appends the store's recovery section to dst. The
// caller excludes appends (a node cuts it under its journal mutex), so
// the section and the log cut agree.
func (s *Store) AppendSection(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dst = wal.AppendUvarint(dst, s.flushedOp)
	var col []byte
	s.latestMu.RLock()
	dst = wal.AppendUvarint(dst, uint64(len(s.latest)))
	var one [1]model.Reading
	for id, r := range s.latest {
		dst = wal.AppendString(dst, id)
		one[0] = r
		b := model.Batch{TypeName: r.TypeName, Category: r.Category, Collected: r.Time, Readings: one[:]}
		col = sensor.AppendBatchColumnar(col[:0], &b)
		dst = wal.AppendBytes(dst, col)
	}
	s.latestMu.RUnlock()
	var mems []*memtable
	if s.flushing != nil {
		mems = append(mems, s.flushing)
	}
	mems = append(mems, s.mem)
	ops := 0
	for _, m := range mems {
		m.mu.RLock()
		defer m.mu.RUnlock()
		ops += len(m.ops)
	}
	dst = wal.AppendUvarint(dst, uint64(ops))
	for _, m := range mems {
		for _, o := range m.ops {
			dst = wal.AppendUvarint(dst, o.op)
			col = sensor.AppendBatchColumnar(col[:0], o.b)
			dst = wal.AppendBytes(dst, col)
		}
	}
	return dst
}

// Restore loads a recovery section into a store just opened, before
// any append: the latest map, and the ops above the manifest's
// FlushedOp into the memtable. It returns the section's watermark. A
// store whose FlushedOp is below it has lost segments the section
// relies on (its directory was deleted or replaced).
func (s *Store) Restore(section []byte) (flushedOp uint64, err error) {
	bad := func(what string, err error) error {
		return fmt.Errorf("segment: recovery section %s: %w (%v)", what, ErrCorrupt, err)
	}
	b := section
	var n uint64
	if flushedOp, b, err = wal.ReadUvarint(b); err != nil {
		return 0, bad("watermark", err)
	}
	if n, b, err = wal.ReadUvarint(b); err != nil {
		return 0, bad("latest count", err)
	}
	for i := uint64(0); i < n; i++ {
		var id string
		var col []byte
		if id, b, err = wal.ReadString(b); err != nil {
			return 0, bad("latest sensor", err)
		}
		if col, b, err = wal.ReadBytes(b); err != nil {
			return 0, bad("latest batch", err)
		}
		lb, err := sensor.DecodeBatchColumnar(col)
		if err != nil || len(lb.Readings) != 1 {
			return 0, bad("latest reading", err)
		}
		s.latest[id] = lb.Readings[0]
	}
	if n, b, err = wal.ReadUvarint(b); err != nil {
		return 0, bad("op count", err)
	}
	for i := uint64(0); i < n; i++ {
		var op uint64
		var col []byte
		if op, b, err = wal.ReadUvarint(b); err != nil {
			return 0, bad("op", err)
		}
		if col, b, err = wal.ReadBytes(b); err != nil {
			return 0, bad("op batch", err)
		}
		batch, err := sensor.DecodeBatchColumnar(col)
		if err != nil {
			return 0, bad("op batch", err)
		}
		if op > s.opCounter.Load() {
			s.opCounter.Store(op)
		}
		if op > s.flushedOp {
			s.mem.add(op, batch)
			s.readings.Add(int64(len(batch.Readings)))
		}
	}
	if len(b) != 0 {
		return 0, bad("trailer", fmt.Errorf("%d trailing bytes", len(b)))
	}
	return flushedOp, nil
}
