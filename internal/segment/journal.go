package segment

import (
	"fmt"

	"f2c/internal/model"
	"f2c/internal/sensor"
	"f2c/internal/wal"
)

// The memtable journal reuses internal/wal for framing and rotation.
// A log record is one append:
//
//	[1] recOp
//	[.] op uvarint — the store's monotonic op id
//	[.] seq uvarint — caller dedup sequence (0 when unused)
//	[.] columnar batch, length-prefixed
//
// A snapshot (written at WAL rotation, under the append lock) is the
// live memtable re-journaled plus the counters and the latest map:
//
//	[1] snapVersion
//	[.] opCounter uvarint
//	[.] appliedSeq uvarint
//	[.] latest count uvarint, then per sensor:
//	    sensor id string, one-reading columnar batch
//	[.] op count uvarint, then per op: op, seq, columnar batch
//
// Replay applies an op's readings to the memtable only when op is
// above the manifest's FlushedOp watermark — anything at or below it
// is already inside a listed segment — which is the exactly-once
// guarantee across crashes at any stage of a flush.
const (
	recOp       = 1
	snapVersion = 1
)

// appendOpRecord encodes one append record around an already
// columnar-encoded batch.
func appendOpRecord(dst []byte, op, seq uint64, col []byte) []byte {
	dst = append(dst, recOp)
	dst = wal.AppendUvarint(dst, op)
	dst = wal.AppendUvarint(dst, seq)
	return wal.AppendBytes(dst, col)
}

// decodeOpBody decodes the body shared by records and snapshot ops.
func decodeOpBody(b []byte) (op, seq uint64, batch *model.Batch, rest []byte, err error) {
	if op, b, err = wal.ReadUvarint(b); err != nil {
		return 0, 0, nil, nil, err
	}
	if seq, b, err = wal.ReadUvarint(b); err != nil {
		return 0, 0, nil, nil, err
	}
	var col []byte
	if col, b, err = wal.ReadBytes(b); err != nil {
		return 0, 0, nil, nil, err
	}
	if batch, err = sensor.DecodeBatchColumnar(col); err != nil {
		return 0, 0, nil, nil, err
	}
	return op, seq, batch, b, nil
}

// encodeSnapshotLocked serializes the rotation snapshot into
// s.snapBuf. The caller holds s.mu exclusively, so counters, latest,
// and the memtable are quiescent — and appenders wait: every batch is
// encoded through the one scratch buffer kept across rotations.
func (s *Store) encodeSnapshotLocked() {
	dst := append(s.snapBuf[:0], snapVersion)
	col := s.snapCol
	dst = wal.AppendUvarint(dst, s.opCounter)
	dst = wal.AppendUvarint(dst, s.appliedSeq.Load())
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
	s.mem.mu.RLock()
	dst = wal.AppendUvarint(dst, uint64(len(s.mem.ops)))
	for _, o := range s.mem.ops {
		dst = wal.AppendUvarint(dst, o.op)
		dst = wal.AppendUvarint(dst, o.seq)
		col = sensor.AppendBatchColumnar(col[:0], o.b)
		dst = wal.AppendBytes(dst, col)
	}
	s.mem.mu.RUnlock()
	s.snapBuf, s.snapCol = dst, col
}

// recoverWAL opens the memtable journal and replays it over the
// already-opened segments, skipping ops the manifest watermark marks
// as flushed. Called once from Open, before any concurrency.
func (s *Store) recoverWAL() error {
	w, err := wal.Open(wal.Config{Dir: s.walDir(), SyncEveryAppend: s.o.SyncEveryAppend, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	bump := func(op, seq uint64) {
		if op > s.opCounter {
			s.opCounter = op
		}
		if seq > s.appliedSeq.Load() {
			s.appliedSeq.Store(seq)
		}
	}
	if snap := w.Snapshot(); snap != nil {
		if err := s.decodeSnapshot(snap, bump); err != nil {
			_ = w.Close()
			return err
		}
	}
	for i, rec := range w.Records() {
		if len(rec) < 1 || rec[0] != recOp {
			_ = w.Close()
			return fmt.Errorf("segment: wal record %d has kind %d: %w", i, rec[0], ErrCorrupt)
		}
		op, seq, b, _, err := decodeOpBody(rec[1:])
		if err != nil {
			_ = w.Close()
			return fmt.Errorf("segment: wal record %d: %w (%v)", i, ErrCorrupt, err)
		}
		bump(op, seq)
		// Latest always advances in log order; the memtable only
		// takes ops segments don't already cover.
		s.updateLatest(b)
		if op > s.flushedOp {
			s.mem.add(op, seq, b)
			s.readings.Add(int64(len(b.Readings)))
		}
	}
	s.wal = w
	return nil
}

// decodeSnapshot restores counters, the latest map, and the
// snapshotted memtable ops.
func (s *Store) decodeSnapshot(snap []byte, bump func(op, seq uint64)) error {
	bad := func(what string, err error) error {
		return fmt.Errorf("segment: wal snapshot %s: %w (%v)", what, ErrCorrupt, err)
	}
	if len(snap) < 1 || snap[0] != snapVersion {
		return bad("version", nil)
	}
	b := snap[1:]
	var opCounter, appliedSeq, n uint64
	var err error
	if opCounter, b, err = wal.ReadUvarint(b); err != nil {
		return bad("opCounter", err)
	}
	if appliedSeq, b, err = wal.ReadUvarint(b); err != nil {
		return bad("appliedSeq", err)
	}
	bump(opCounter, appliedSeq)
	if n, b, err = wal.ReadUvarint(b); err != nil {
		return bad("latest count", err)
	}
	for i := uint64(0); i < n; i++ {
		var id string
		var col []byte
		if id, b, err = wal.ReadString(b); err != nil {
			return bad("latest sensor", err)
		}
		if col, b, err = wal.ReadBytes(b); err != nil {
			return bad("latest batch", err)
		}
		lb, err := sensor.DecodeBatchColumnar(col)
		if err != nil || len(lb.Readings) != 1 {
			return bad("latest reading", err)
		}
		s.latest[id] = lb.Readings[0]
	}
	if n, b, err = wal.ReadUvarint(b); err != nil {
		return bad("op count", err)
	}
	for i := uint64(0); i < n; i++ {
		var op, seq uint64
		var batch *model.Batch
		if op, seq, batch, b, err = decodeOpBody(b); err != nil {
			return bad("op", err)
		}
		bump(op, seq)
		if op > s.flushedOp {
			s.mem.add(op, seq, batch)
			s.readings.Add(int64(len(batch.Readings)))
		}
	}
	if len(b) != 0 {
		return bad("trailer", fmt.Errorf("%d trailing bytes", len(b)))
	}
	return nil
}
