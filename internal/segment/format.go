package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sensor"
	"f2c/internal/wal"
)

// Typed corruption errors. ErrCorrupt marks structural damage (bad
// magic, truncated footer, out-of-bounds index entries); ErrChecksum
// marks a frame whose bytes no longer match their CRC. Both wrap the
// file path in the returned error.
var (
	ErrCorrupt  = errors.New("segment: corrupt")
	ErrChecksum = errors.New("segment: checksum mismatch")
)

const (
	fileMagic   = "f2cseg01"
	footerMagic = "f2csegFT"
	// footerSize is index offset + index frame length + total
	// readings + footer magic.
	footerSize = 8 + 8 + 8 + 8
	// frameHeader is u32 payload length + u32 CRC-32C.
	frameHeader = 8
	// indexVersion is the index payload format version.
	indexVersion = 1
	// maxBlockBytes bounds one decompressed block, mirroring
	// wal.MaxRecordSize: a corrupt length can't force a giant
	// allocation.
	maxBlockBytes = wal.MaxRecordSize
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockMeta is one sparse-index entry: where a block frame lives and
// what (type, time) range it covers.
type blockMeta struct {
	typ        string
	minT, maxT int64 // unix nanos, inclusive
	count      int
	off        uint64 // frame offset in file
	length     uint64 // full frame length (header + payload)
}

// typeRun is one type's readings in canonical order, what a memtable
// hands the segment writer.
type typeRun struct {
	typ      string
	readings []model.Reading
}

// parseFrame verifies and returns the payload of the frame at
// [off, off+length) in data.
func parseFrame(data []byte, off, length uint64) ([]byte, error) {
	if length < frameHeader || off > uint64(len(data)) || off+length > uint64(len(data)) {
		return nil, fmt.Errorf("frame at %d+%d out of bounds: %w", off, length, ErrCorrupt)
	}
	f := data[off : off+length]
	n := binary.LittleEndian.Uint32(f[0:4])
	if uint64(n)+frameHeader != length || n > maxBlockBytes {
		return nil, fmt.Errorf("frame at %d has length %d, want %d: %w", off, n, length-frameHeader, ErrCorrupt)
	}
	payload := f[frameHeader:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(f[4:8]) {
		return nil, fmt.Errorf("frame at %d: %w", off, ErrChecksum)
	}
	return payload, nil
}

// parseIndex validates a complete segment image and returns its
// sparse index. It never panics on hostile bytes: every offset and
// length is bounds-checked before use.
func parseIndex(data []byte) ([]blockMeta, uint64, error) {
	if len(data) < len(fileMagic)+footerSize {
		return nil, 0, fmt.Errorf("%d bytes is too short for a segment: %w", len(data), ErrCorrupt)
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, 0, fmt.Errorf("bad file magic: %w", ErrCorrupt)
	}
	foot := data[len(data)-footerSize:]
	if string(foot[24:32]) != footerMagic {
		return nil, 0, fmt.Errorf("bad footer magic: %w", ErrCorrupt)
	}
	idxOff := binary.LittleEndian.Uint64(foot[0:8])
	idxLen := binary.LittleEndian.Uint64(foot[8:16])
	total := binary.LittleEndian.Uint64(foot[16:24])
	bodyEnd := uint64(len(data) - footerSize)
	if idxOff < uint64(len(fileMagic)) || idxLen > bodyEnd || idxOff+idxLen != bodyEnd {
		return nil, 0, fmt.Errorf("index frame %d+%d does not abut footer at %d: %w", idxOff, idxLen, bodyEnd, ErrCorrupt)
	}
	idx, err := parseFrame(data, idxOff, idxLen)
	if err != nil {
		return nil, 0, fmt.Errorf("index %w", err)
	}
	if len(idx) < 1 || idx[0] != indexVersion {
		return nil, 0, fmt.Errorf("unsupported index version: %w", ErrCorrupt)
	}
	rest := idx[1:]
	nBlocks, rest, err := wal.ReadUvarint(rest)
	if err != nil || nBlocks > uint64(len(idx)) {
		return nil, 0, fmt.Errorf("implausible block count: %w", ErrCorrupt)
	}
	metas := make([]blockMeta, 0, nBlocks)
	var sum uint64
	for i := uint64(0); i < nBlocks; i++ {
		var m blockMeta
		var minT, maxT, count uint64
		if m.typ, rest, err = wal.ReadString(rest); err == nil {
			if minT, rest, err = wal.ReadUint64(rest); err == nil {
				if maxT, rest, err = wal.ReadUint64(rest); err == nil {
					if count, rest, err = wal.ReadUvarint(rest); err == nil {
						if m.off, rest, err = wal.ReadUvarint(rest); err == nil {
							m.length, rest, err = wal.ReadUvarint(rest)
						}
					}
				}
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("index entry %d: %w", i, ErrCorrupt)
		}
		m.minT, m.maxT = int64(minT), int64(maxT)
		if m.minT > m.maxT || count > maxBlockBytes {
			return nil, 0, fmt.Errorf("index entry %d implausible: %w", i, ErrCorrupt)
		}
		m.count = int(count)
		if m.off < uint64(len(fileMagic)) || m.length < frameHeader || m.off+m.length > idxOff {
			return nil, 0, fmt.Errorf("index entry %d frame %d+%d out of bounds: %w", i, m.off, m.length, ErrCorrupt)
		}
		sum += count
		metas = append(metas, m)
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("%d trailing index bytes: %w", len(rest), ErrCorrupt)
	}
	if sum != total {
		return nil, 0, fmt.Errorf("index counts %d readings, footer says %d: %w", sum, total, ErrCorrupt)
	}
	return metas, total, nil
}

// segment is one open, immutable segment file. The store holds one
// reference; every in-flight query holds another, so compaction and
// retention can unlink a file while readers still stream from its
// mapping — the unmap happens when the last reference drops.
type segment struct {
	path     string
	data     []byte
	mapped   bool
	blocks   []blockMeta
	byType   map[string][]blockMeta
	minT     int64
	maxT     int64
	readings int64
	refs     int32 // guarded by refMu in store.go via atomic ops
}

// newSegment validates a segment image and builds its per-type view.
func newSegment(path string, data []byte, mapped bool) (*segment, error) {
	metas, total, err := parseIndex(data)
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	g := &segment{
		path:     path,
		data:     data,
		mapped:   mapped,
		blocks:   metas,
		byType:   make(map[string][]blockMeta),
		readings: int64(total),
		refs:     1,
	}
	for i, m := range metas {
		g.byType[m.typ] = append(g.byType[m.typ], m)
		if i == 0 || m.minT < g.minT {
			g.minT = m.minT
		}
		if i == 0 || m.maxT > g.maxT {
			g.maxT = m.maxT
		}
	}
	return g, nil
}

// openSegmentFile maps (or, off Linux, reads) a segment file.
func openSegmentFile(path string) (*segment, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	g, err := newSegment(path, data, mapped)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	return g, nil
}

// inflateScratch pools the decompressed-block buffers of appendBlock:
// a block's raw columnar bytes live only for the length of one decode.
var inflateScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendBlock decodes one block frame and appends to dst its readings
// within [fromNs, toNs], at most max of them when max > 0. The whole
// block is checksummed, inflated and validated whatever the bounds.
func (g *segment) appendBlock(dst []model.Reading, m blockMeta, fromNs, toNs int64, max int) ([]model.Reading, error) {
	payload, err := parseFrame(g.data, m.off, m.length)
	if err != nil {
		return dst, fmt.Errorf("segment %s: block %w", g.path, err)
	}
	if len(payload) < 1 {
		return dst, fmt.Errorf("segment %s: empty block payload: %w", g.path, ErrCorrupt)
	}
	scratch := inflateScratch.Get().(*[]byte)
	defer inflateScratch.Put(scratch)
	raw, err := aggregate.AppendDecompress((*scratch)[:0], aggregate.Codec(payload[0]), payload[1:], maxBlockBytes)
	if err != nil {
		return dst, fmt.Errorf("segment %s: block at %d: %w (%v)", g.path, m.off, ErrCorrupt, err)
	}
	*scratch = raw
	out, typ, count, err := sensor.AppendReadingsColumnar(dst, raw, fromNs, toNs, max)
	if err != nil {
		return dst, fmt.Errorf("segment %s: block at %d: %w (%v)", g.path, m.off, ErrCorrupt, err)
	}
	if count != m.count || typ != m.typ {
		return dst, fmt.Errorf("segment %s: block at %d does not match its index entry: %w", g.path, m.off, ErrCorrupt)
	}
	return out, nil
}

// frame returns block m's frame as stored, checksum verified: what a
// compaction copies when the block needs no re-encoding.
func (g *segment) frame(m blockMeta) ([]byte, error) {
	if _, err := parseFrame(g.data, m.off, m.length); err != nil {
		return nil, fmt.Errorf("segment %s: block %w", g.path, err)
	}
	return g.data[m.off : m.off+m.length], nil
}

// blocksIn returns the blocks of typ overlapping [fromNs, toNs]; blocks
// of a type are time-ordered, so they are one stretch of the index.
func (g *segment) blocksIn(typ string, fromNs, toNs int64) []blockMeta {
	bs := g.byType[typ]
	lo := sort.Search(len(bs), func(i int) bool { return bs[i].maxT >= fromNs })
	hi := lo + sort.Search(len(bs)-lo, func(i int) bool { return bs[lo+i].minT > toNs })
	return bs[lo:hi]
}

// estimate guesses how many of the block's readings fall within
// [fromNs, toNs], taking them as evenly spaced: exact for a block the
// range covers, at most count+1 otherwise, and what keeps a narrow
// range from presizing its result to whole blocks (see
// BenchmarkSegmentNarrowRange). The interpolation is in 128-bit
// integers: nanosecond instants are beyond float64 resolution.
func (m blockMeta) estimate(fromNs, toNs int64) int {
	lo, hi := max(fromNs, m.minT), min(toNs, m.maxT)
	if hi < lo {
		return 0
	}
	span, w := uint64(m.maxT)-uint64(m.minT), uint64(hi)-uint64(lo)
	if w >= span {
		return m.count
	}
	h, l := bits.Mul64(uint64(m.count), w)
	q, _ := bits.Div64(h, l, span) // h < w < span: cannot overflow
	return int(q) + 1
}

// size is the on-disk byte size.
func (g *segment) size() int64 { return int64(len(g.data)) }

// acquire takes a reference for a reader about to stream from the
// mapping.
func (g *segment) acquire() { atomic.AddInt32(&g.refs, 1) }

// release drops a reference; the last one unmaps the file, which may
// already be unlinked by compaction or retention.
func (g *segment) release() {
	if atomic.AddInt32(&g.refs, -1) == 0 && g.mapped {
		unmapFile(g.data)
	}
}

// canonLess is the canonical total order over readings: time, then
// sensor ID, value, unit, category, location. It refines the
// (time, sensor, value) sealing order of fognode.sendBatch, and it
// is shared by the memtable, the segment writer, and the k-way merge
// of the query path — one order everywhere is what makes (T, Skip)
// cursors stable across flush and compaction.
func canonLess(a, b *model.Reading) bool {
	at, bt := a.Time.UnixNano(), b.Time.UnixNano()
	if at != bt {
		return at < bt
	}
	if a.SensorID != b.SensorID {
		return a.SensorID < b.SensorID
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	if a.Unit != b.Unit {
		return a.Unit < b.Unit
	}
	if a.Category != b.Category {
		return a.Category < b.Category
	}
	if a.Location.Lat != b.Location.Lat {
		return a.Location.Lat < b.Location.Lat
	}
	return a.Location.Lon < b.Location.Lon
}

// normalizeBatch copies a batch into the exact form a columnar
// round trip produces — per-reading type/category from the batch,
// float32 locations, wall-clock-only times — so a reading compares
// identically before and after it moves from memtable to segment.
func normalizeBatch(b *model.Batch) *model.Batch {
	nb := &model.Batch{
		NodeID:    b.NodeID,
		TypeName:  b.TypeName,
		Category:  b.Category,
		Collected: b.Collected,
		Readings:  make([]model.Reading, len(b.Readings)),
	}
	for i, r := range b.Readings {
		r.TypeName = b.TypeName
		r.Category = b.Category
		r.Time = time.Unix(0, r.Time.UnixNano())
		r.Location.Lat = float64(float32(r.Location.Lat))
		r.Location.Lon = float64(float32(r.Location.Lon))
		nb.Readings[i] = r
	}
	return nb
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
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
