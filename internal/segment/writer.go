package segment

import (
	"encoding/binary"
	"fmt"
	"io"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sensor"
	"f2c/internal/wal"
)

// segmentWriter streams one segment image to out: block frames as they
// fill, then the index and footer. It holds one pending block of
// readings and the encode scratch, never the image, so writing a
// segment costs O(block) memory whatever its size. Readings arrive per
// type (types ascending, readings canonical); blocks are cut every
// blockReadings readings and on category changes, so the per-batch
// category byte of the columnar codec stays lossless.
type segmentWriter struct {
	out           io.Writer
	codec         aggregate.Codec
	blockReadings int

	off   uint64 // bytes written so far
	metas []blockMeta
	total uint64

	typ  string          // type of the pending block
	pend []model.Reading // readings awaiting a full block

	colBuf, payload, frame []byte
}

func newSegmentWriter(out io.Writer, codec aggregate.Codec, blockReadings int) (*segmentWriter, error) {
	if blockReadings <= 0 {
		blockReadings = DefaultBlockReadings
	}
	w := &segmentWriter{out: out, codec: codec, blockReadings: blockReadings}
	return w, w.write([]byte(fileMagic))
}

func (w *segmentWriter) write(p []byte) error {
	n, err := w.out.Write(p)
	w.off += uint64(n)
	return err
}

// add appends canonical-order readings of typ. A change of type closes
// the pending block.
func (w *segmentWriter) add(typ string, rs []model.Reading) error {
	if typ != w.typ {
		if err := w.flushPending(); err != nil {
			return err
		}
		w.typ = typ
	}
	for len(rs) > 0 {
		if len(w.pend) > 0 && rs[0].Category != w.pend[0].Category {
			if err := w.flushPending(); err != nil {
				return err
			}
		}
		n := w.blockReadings - len(w.pend)
		if n > len(rs) {
			n = len(rs)
		}
		for i := 1; i < n; i++ {
			if rs[i].Category != rs[0].Category {
				n = i
				break
			}
		}
		if len(w.pend) == 0 && n == w.blockReadings {
			// A whole block is at hand: encode it where it lies.
			if err := w.writeBlock(rs[:n]); err != nil {
				return err
			}
		} else {
			w.pend = append(w.pend, rs[:n]...)
			if len(w.pend) == w.blockReadings {
				if err := w.flushPending(); err != nil {
					return err
				}
			}
		}
		rs = rs[n:]
	}
	return nil
}

// aligned reports whether a block of typ can be copied in whole: no
// reading of that type is waiting for a block of its own.
func (w *segmentWriter) aligned(typ string) bool {
	return typ != w.typ || len(w.pend) == 0
}

// copyFrame appends an already-encoded block frame as it is. The caller
// has checked aligned(m.typ) and that the block is full.
func (w *segmentWriter) copyFrame(m blockMeta, frame []byte) error {
	if err := w.flushPending(); err != nil {
		return err
	}
	w.typ = m.typ
	m.off, m.length = w.off, uint64(len(frame))
	w.metas = append(w.metas, m)
	w.total += uint64(m.count)
	return w.write(frame)
}

func (w *segmentWriter) flushPending() error {
	if len(w.pend) == 0 {
		return nil
	}
	err := w.writeBlock(w.pend)
	w.pend = w.pend[:0]
	return err
}

// writeBlock encodes chunk (one type, one category, canonical order)
// as the next block frame.
func (w *segmentWriter) writeBlock(chunk []model.Reading) error {
	b := model.Batch{
		TypeName:  w.typ,
		Category:  chunk[0].Category,
		Collected: chunk[0].Time,
		Readings:  chunk,
	}
	w.colBuf = sensor.AppendBatchColumnar(w.colBuf[:0], &b)
	w.payload = append(w.payload[:0], byte(w.codec))
	var err error
	w.payload, err = aggregate.AppendCompress(w.payload, w.codec, w.colBuf)
	if err != nil {
		return fmt.Errorf("segment: compress block: %w", err)
	}
	w.frame = wal.AppendFrame(w.frame[:0], w.payload)
	w.metas = append(w.metas, blockMeta{
		typ:    w.typ,
		minT:   chunk[0].Time.UnixNano(),
		maxT:   chunk[len(chunk)-1].Time.UnixNano(),
		count:  len(chunk),
		off:    w.off,
		length: uint64(len(w.frame)),
	})
	w.total += uint64(len(chunk))
	return w.write(w.frame)
}

// finish closes the last block and appends the index frame and footer.
func (w *segmentWriter) finish() error {
	if err := w.flushPending(); err != nil {
		return err
	}
	idx := []byte{indexVersion}
	idx = wal.AppendUvarint(idx, uint64(len(w.metas)))
	for _, m := range w.metas {
		idx = wal.AppendString(idx, m.typ)
		idx = wal.AppendUint64(idx, uint64(m.minT))
		idx = wal.AppendUint64(idx, uint64(m.maxT))
		idx = wal.AppendUvarint(idx, uint64(m.count))
		idx = wal.AppendUvarint(idx, m.off)
		idx = wal.AppendUvarint(idx, m.length)
	}
	idxOff := w.off
	tail := wal.AppendFrame(w.frame[:0], idx)
	idxLen := uint64(len(tail))
	tail = binary.LittleEndian.AppendUint64(tail, idxOff)
	tail = binary.LittleEndian.AppendUint64(tail, idxLen)
	tail = binary.LittleEndian.AppendUint64(tail, w.total)
	tail = append(tail, footerMagic...)
	return w.write(tail)
}
