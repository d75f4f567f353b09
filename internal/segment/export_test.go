package segment

import (
	"bytes"
	"fmt"
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

// testLog plays a durable node for the store's recovery tests: it
// numbers each append as the position of the record that carries it,
// keeps the recovery section of its last checkpoint and the records
// since, and refills a store reopened after a crash from them — the
// node journal's part in the store's durability.
type testLog struct {
	op      uint64
	section []byte
	tail    []loggedOp
}

type loggedOp struct {
	op uint64
	b  *model.Batch
}

func (l *testLog) append(s *Store, b *model.Batch) error {
	l.op++
	l.tail = append(l.tail, loggedOp{op: l.op, b: b})
	return s.AppendSeq(b, l.op)
}

// checkpoint cuts a snapshot: the section replaces the records.
func (l *testLog) checkpoint(s *Store) {
	l.section = s.AppendSection(nil)
	l.tail = nil
}

// recover refills a store just opened: the section, then the records
// in log order, each applied only above the manifest's FlushedOp.
func (l *testLog) recover(s *Store) error {
	if l.section != nil {
		cut, err := s.Restore(l.section)
		if err != nil {
			return err
		}
		if s.FlushedOp() < cut {
			return fmt.Errorf("store flushed up to op %d, the section needs %d", s.FlushedOp(), cut)
		}
	}
	for _, r := range l.tail {
		if err := s.AppendSeq(r.b, r.op); err != nil {
			return err
		}
	}
	return nil
}
