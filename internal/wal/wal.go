// Package wal provides the durability substrate of the F2C hierarchy:
// an append-only, length-prefixed, CRC-framed write-ahead log paired
// with generation-rotated snapshots in one directory.
//
// The paper's data-preservation phase promises that data accepted at a
// fog tier survives until it reaches the cloud archive; an in-memory
// node cannot keep that promise across a process crash. A durable node
// therefore journals every state change that matters for upward
// delivery (accepted readings, sealed delivery sequences, commits,
// sheds, replay-filter marks) through a Store, and periodically folds
// the journal into a snapshot so recovery stays bounded.
//
// # On-disk layout
//
// A Store owns one directory:
//
//	snapshot        the newest snapshot (atomic rename; carries its
//	                generation and a CRC over its payload)
//	wal-<gen>       the record log holding everything appended since
//	                the generation-<gen> snapshot
//
// WriteSnapshot advances the generation: it writes snapshot.tmp,
// fsyncs, creates wal-<gen+1>, renames snapshot.tmp over snapshot,
// fsyncs the directory and removes the old log. Every crash window of that sequence is recoverable:
// a snapshot without its log replays as snapshot-only, and stale logs
// from older generations are ignored and deleted on open.
//
// # Record framing
//
// Each record is framed as
//
//	[4-byte little-endian length][4-byte CRC-32C of payload][payload]
//
// Replay on open stops at the first frame that is short, oversized or
// fails its checksum — the torn tail of a crashed append — and
// truncates the file back to the last intact frame, so the recovered
// prefix is exactly the records whose Append returned success, and
// subsequent appends extend a clean log. Corruption never panics; it
// only shortens the replayed prefix.
//
// A Store serializes nothing itself: callers own the locking (nodes
// already serialize journal writes with their own mutex so appends
// stay ordered with the state changes they describe).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Config configures a durable node's Store.
type Config struct {
	// Dir is the node's snapshot+log directory (created if missing).
	Dir string
	// SnapshotEvery is how many appended records trigger an automatic
	// checkpoint at the owner's next safe point (fog nodes check after
	// each flush). Zero selects DefaultSnapshotEvery; negative
	// disables automatic checkpoints (explicit ones still work).
	SnapshotEvery int
	// SyncEveryAppend fsyncs the log after every record. Off by
	// default: the log is written through the OS page cache and synced
	// at snapshots and on Close, which survives process crashes (the
	// failure mode the chaos harness injects) but can lose the tail on
	// a whole-machine power cut.
	SyncEveryAppend bool
}

// DefaultSnapshotEvery is the automatic-checkpoint record threshold
// used when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// frameHeader is bytes per record frame before the payload.
const frameHeader = 8

// MaxRecordSize bounds one record's payload; a corrupt length prefix
// beyond it stops replay instead of forcing a giant allocation.
const MaxRecordSize = 1 << 26

// snapshot file framing: magic, version, generation, payload length,
// payload CRC-32C, payload.
const (
	snapMagic   = "f2cs"
	snapVersion = 1
	snapHeader  = 4 + 1 + 8 + 4 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Store couples a snapshot file and the current-generation record log.
// Not safe for concurrent use; callers serialize.
type Store struct {
	cfg      Config
	gen      uint64
	file     *os.File
	snapshot []byte   // loaded at Open; nil when none
	records  [][]byte // intact tail replayed at Open
	appends  int      // records appended since the last snapshot
	frame    []byte   // Append's reused frame buffer
}

// Open opens (or creates) the store directory, loads the newest
// snapshot, replays the matching log's intact prefix — truncating a
// torn tail in place — and deletes logs from older generations. A
// snapshot that fails its checksum is an error (bit rot on durable
// state needs operator attention), while log-tail corruption is the
// expected crash signature and only shortens the replayed prefix.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: empty dir")
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{cfg: cfg}

	snap, gen, err := readSnapshot(filepath.Join(cfg.Dir, "snapshot"))
	if err != nil {
		return nil, err
	}
	s.snapshot = snap
	s.gen = gen

	if err := s.dropStaleLogs(); err != nil {
		return nil, err
	}
	records, err := replayLog(s.logPath(s.gen))
	if err != nil {
		return nil, err
	}
	s.records = records
	s.appends = len(records)

	f, err := os.OpenFile(s.logPath(s.gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s.file = f
	// The log may have just been created: its directory entry must be
	// on disk before a record in it is relied on.
	if err := syncDir(cfg.Dir); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return s, nil
}

func (s *Store) logPath(gen uint64) string {
	return filepath.Join(s.cfg.Dir, "wal-"+strconv.FormatUint(gen, 10))
}

// dropStaleLogs removes wal-* files from generations other than the
// snapshot's — leftovers of a crash inside WriteSnapshot's rotation.
func (s *Store) dropStaleLogs() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	keep := "wal-" + strconv.FormatUint(s.gen, 10)
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && name != keep {
			if err := os.Remove(filepath.Join(s.cfg.Dir, name)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// Snapshot returns the snapshot payload loaded at Open (nil when the
// store had none). The slice is owned by the store's recovery state;
// callers must not modify it.
func (s *Store) Snapshot() []byte { return s.snapshot }

// Records returns the intact log tail replayed at Open, in append
// order. Slices are owned by the recovery state; callers must not
// modify them.
func (s *Store) Records() [][]byte { return s.records }

// Append frames one record and writes it to the log in one write.
func (s *Store) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record size %d out of range", len(payload))
	}
	s.frame = AppendFrame(s.frame[:0], payload)
	if _, err := s.file.Write(s.frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if s.cfg.SyncEveryAppend {
		if err := s.file.Sync(); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
	}
	s.appends++
	return nil
}

// AppendsSinceSnapshot reports how many records the current log holds
// (recovered tail plus appends); owners compare it against
// SnapshotThreshold at their safe points.
func (s *Store) AppendsSinceSnapshot() int { return s.appends }

// SnapshotThreshold returns the automatic-checkpoint record count
// (0 when automatic checkpoints are disabled).
func (s *Store) SnapshotThreshold() int {
	if s.cfg.SnapshotEvery < 0 {
		return 0
	}
	return s.cfg.SnapshotEvery
}

// WriteSnapshot atomically replaces the snapshot with data and rotates
// the log to the next generation, so recovery cost stays proportional
// to the records since the last checkpoint.
func (s *Store) WriteSnapshot(data []byte) error {
	next := s.gen + 1
	tmp := filepath.Join(s.cfg.Dir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	hdr := make([]byte, 0, snapHeader)
	hdr = append(hdr, snapMagic...)
	hdr = append(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, next)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(data)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(data, crcTable))
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// Create the next generation's log before the rename publishes the
	// snapshot that names it: if the log cannot be opened, nothing has
	// moved and appends go on into the current log, which stays the
	// live one on the next Open.
	nextPath := s.logPath(next)
	f, err = os.OpenFile(nextPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.cfg.Dir, "snapshot")); err != nil {
		_ = f.Close()
		_ = os.Remove(nextPath)
		return fmt.Errorf("wal: snapshot: %w", err)
	}

	// The snapshot is durable; everything in the old log is folded in,
	// so appends move to the new log whatever follows. Sync the
	// directory, then close and drop the old log. A crash anywhere here
	// is recovered by Open (missing new log = empty tail; surviving old
	// log = stale, deleted). The directory sync orders the rename and
	// the new log's creation before the removal: POSIX does not order
	// directory updates, and a power cut that kept the old snapshot but
	// lost the old log would lose every record since the previous
	// checkpoint.
	old, oldPath := s.file, s.logPath(s.gen)
	s.gen, s.file = next, f
	s.appends, s.records, s.snapshot = 0, nil, nil
	err = syncDir(s.cfg.Dir)
	_ = old.Close()
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	_ = os.Remove(oldPath)
	return nil
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the log.
func (s *Store) Close() error {
	if s.file == nil {
		return nil
	}
	err := s.file.Sync()
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	s.file = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making the renames, creations and
// removals in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSnapshot loads and verifies a snapshot file; a missing file is
// (nil, 0, nil).
func readSnapshot(path string) ([]byte, uint64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	if len(raw) < snapHeader || string(raw[:4]) != snapMagic {
		return nil, 0, fmt.Errorf("wal: corrupt snapshot header in %s", path)
	}
	if raw[4] != snapVersion {
		return nil, 0, fmt.Errorf("wal: unsupported snapshot version %d in %s", raw[4], path)
	}
	gen := binary.LittleEndian.Uint64(raw[5:13])
	n := binary.LittleEndian.Uint32(raw[13:17])
	sum := binary.LittleEndian.Uint32(raw[17:21])
	payload := raw[snapHeader:]
	if uint64(len(payload)) != uint64(n) || crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, fmt.Errorf("wal: snapshot checksum mismatch in %s", path)
	}
	return payload, gen, nil
}

// replayLog reads the intact record prefix of a log file and truncates
// a torn or corrupt tail in place. A missing file replays empty.
func replayLog(path string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var records [][]byte
	off := 0
	for {
		rec, next, ok := nextFrame(raw, off)
		if !ok {
			break
		}
		records = append(records, rec)
		off = next
	}
	if off < len(raw) {
		// Torn tail: cut the file back to the last intact frame so
		// future appends extend a clean log.
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return records, nil
}

// nextFrame decodes one frame at off; ok is false at EOF or on a
// short, oversized or checksum-failing frame.
func nextFrame(raw []byte, off int) (rec []byte, next int, ok bool) {
	if off+frameHeader > len(raw) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
	sum := binary.LittleEndian.Uint32(raw[off+4 : off+8])
	if n == 0 || n > MaxRecordSize || off+frameHeader+n > len(raw) {
		return nil, off, false
	}
	payload := raw[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, off, false
	}
	return payload, off + frameHeader + n, true
}

// AppendFrame frames payload as Append writes it and appends it to
// dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}
