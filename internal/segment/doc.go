// Package segment is the tiered on-disk storage engine of the F2C
// hierarchy: an LSM-lite store that keeps recent appends in a small
// in-RAM memtable (whose log is the node journal that carries the
// readings) and flushes them to immutable, time-partitioned segment
// files served by mmap. It backs the fog layers' temporal stores and the cloud's
// query series wherever a node has a data dir, replacing the
// RAM-bound store.TimeSeries so capacity is bounded by disk, not
// memory — the paper's cloud tier preserves years of city history.
//
// # Segment file format
//
// A segment file is written once, atomically (tmp + rename), and
// never modified:
//
//	[8]  file magic "f2cseg01"
//	[..] block frames
//	[..] index frame
//	[32] footer: index offset u64 LE | index frame length u64 LE |
//	     total readings u64 LE | footer magic "f2csegFT"
//
// Every frame is WAL-style: u32 LE payload length, u32 LE CRC-32C
// (Castagnoli) of the payload, payload. A block payload is one
// compression-codec byte followed by an aggregate-compressed PR 2
// columnar batch (sensor.AppendBatchColumnar) — the same
// dictionary + delta encoding the wire path uses. The index payload
// is a version byte and a sparse (type, time) directory: for each
// block its type name, min/max reading time, reading count, and the
// frame's file offset and length. Readers verify the footer and the
// index checksum at open and each block's checksum on first read;
// any damage surfaces as ErrCorrupt (structural) or ErrChecksum
// (bit rot), never a panic.
//
// Within a segment, blocks of one type are time-ordered and each
// block's readings are sorted in the canonical reading order (time,
// then sensor ID, value, unit, category, location), the same total
// order the memtable and compaction use — which is what keeps
// (T, Skip) page cursors stable across a memtable flush or a
// compaction happening mid-walk. Reads go block by block through one
// append-style decoder (sensor.AppendReadingsColumnar) straight into
// a result presized from the index, materialising only the readings
// inside the queried range.
//
// # Durability and DataDir layout
//
// A store owns one directory, DataDir/<node id>/store, inside the
// node's data dir beside its journal files (DataDir/<node id>/snapshot,
// wal-N), and created by the first flush:
//
//	store/MANIFEST      crash-safe segment list + flushed-op watermark
//	store/00000001.seg  immutable segments
//
// The store keeps no log of its own: the node journal is its log
// (internal/durable). Every append is numbered by the journal record
// that carries its readings (AppendSeq), and a node checkpoint carries
// the store's recovery section — the latest map and the memtable ops
// above the watermark (section.go). A flush writes the frozen memtable
// as a segment and commits it in MANIFEST (tmp + rename) together with
// the flushed-op watermark. Recovery is the reverse: open the segments
// MANIFEST lists (deleting orphans from interrupted flushes or
// compactions), Restore the section, then replay the journal tail
// through AppendSeq, each skipping every op at or below the manifest
// watermark — each reading lands exactly once no matter where the
// crash fell. A directory holding the store WAL (wal/) that earlier
// builds wrote is refused untouched.
//
// # Compaction
//
// Every flush adds a segment, and a query merges across all of them,
// so a background loop merges segments back together. What it merges
// is decided by size: a round takes a run of segments adjacent in size
// order — at least CompactMinSegments of them, at most eight, none at
// or above the 16 MiB target — in which the largest is no larger than
// the rest together, and repeats until no such run is left. A segment
// is therefore only rewritten along with at least its own size in
// other inputs, which gives the policy its two bounds: every rewrite
// at least doubles the segment a byte sits in, so over N equal flushes
// compaction writes no more than log₂ N times the bytes flushed (the
// rule it replaced, merge everything below the target, wrote N/8
// times); and the segments no round will take grow geometrically in
// size, so no more than CompactMinSegments·(log₂ N + 1) are live.
//
// A round is a streaming k-way merge, type by type, that holds one
// decoded block per input and one block of output, and writes frames
// to the new file as they fill: its memory is a few blocks, not the
// segments it merges. A block that is already full, that no other
// input holds a reading inside the time span of (one shared instant
// at an end counts), and that falls where the output is at a block
// boundary is not decoded at all — its frame is checksummed and
// copied as it is, so merging segments that cover successive spans,
// the common case, costs a memcpy for most of the bytes. The output
// is byte for byte what decoding everything, sorting and encoding
// would have written.
//
// storage.compaction_bytes_in and storage.compaction_bytes_out count
// the segment bytes rounds consumed and produced; bytes_out over the
// bytes ever flushed is the store's write amplification. A flush or a
// round that fails counts in storage.flush_errors or
// storage.compact_errors and is retried at the next trigger.
//
// # Retention tiers
//
// Retention is enforced by dropping whole expired segments — a
// manifest rewrite and a handful of unlinks, never a scan — so each
// tier of the hierarchy picks its window (fog sections hours,
// districts days, the cloud zero = forever) and eviction cost stays
// independent of history size.
package segment
