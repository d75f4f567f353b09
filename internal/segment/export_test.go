package segment

import (
	"bytes"
	"math"

	"f2c/internal/aggregate"
	"f2c/internal/model"
)

// SetFailpoint installs a crash injector called at flush/compaction
// stage boundaries ("flush:segment-written",
// "compact:manifest-written", ...). Returning an error aborts the
// maintenance pass at that boundary, leaving the on-disk state
// exactly as a crash there would.
func (s *Store) SetFailpoint(fn func(stage string) error) { s.failpoint = fn }

// The helpers below give the format tests whole-image and whole-block
// forms of the streaming writer and the append-style reader.

// appendSegment encodes runs (types sorted, readings canonical) into a
// complete segment image appended to dst.
func appendSegment(dst []byte, codec aggregate.Codec, blockReadings int, runs []typeRun) ([]byte, error) {
	var img bytes.Buffer
	w, err := newSegmentWriter(&img, codec, blockReadings)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		if err := w.add(run.typ, run.readings); err != nil {
			return nil, err
		}
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return append(dst, img.Bytes()...), nil
}

// blockReadings decodes one whole block.
func (g *segment) blockReadings(m blockMeta) ([]model.Reading, error) {
	return g.appendBlock(nil, m, math.MinInt64, math.MaxInt64, 0)
}

// fetch appends readings of typ within [fromNs, toNs] in canonical
// order, at most max when max > 0; the bool reports whether the cap
// was reached.
func (g *segment) fetch(dst []model.Reading, typ string, fromNs, toNs int64, max int) ([]model.Reading, bool, error) {
	n0 := len(dst)
	m := merger{cs: []blockCursor{{g: g, blocks: g.blocksIn(typ, fromNs, toNs)}}, fromNs: fromNs, toNs: toNs}
	dst, err := m.appendTo(dst, max)
	return dst, max > 0 && len(dst)-n0 >= max, err
}
