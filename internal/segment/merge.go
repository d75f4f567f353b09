package segment

import (
	"math"
	"sort"

	"f2c/internal/model"
)

// blockCursor is one input of a merge: the readings of one type from
// one source, in canonical order. A segment's cursor walks its block
// index and decodes a block only when the merge reaches it; a memtable
// snapshot is a cursor with everything already in buf.
type blockCursor struct {
	g      *segment        // nil for a memtable snapshot
	blocks []blockMeta     // blocks not yet reached, time-ordered
	buf    []model.Reading // decoded readings; buf[pos:] are still ahead
	pos    int
}

func (c *blockCursor) loaded() bool { return c.pos < len(c.buf) }

func (c *blockCursor) done() bool { return !c.loaded() && len(c.blocks) == 0 }

// bound is the earliest time anything still ahead of the cursor can
// carry: exact when a block is decoded, the next block's minimum when
// not.
func (c *blockCursor) bound() int64 {
	if c.loaded() {
		return c.buf[c.pos].Time.UnixNano()
	}
	return c.blocks[0].minT
}

// mergeRun is the next stretch of a merge: readings of one input that
// come before everything every other input still holds. Either rs is
// that stretch decoded (it aliases the cursor's buffer and is valid
// until the next call), or rs is nil and blk is a whole block of g
// that no other input reaches into — the caller decodes it where it
// wants it, or copies its frame.
type mergeRun struct {
	rs  []model.Reading
	g   *segment
	blk blockMeta
}

// merger k-way merges cursors of one type into canonical order, a run
// at a time, decoding within [fromNs, toNs] only. Ties across inputs
// pick the lower input; since only fully identical readings compare
// equal under canonLess, the choice is unobservable.
type merger struct {
	cs           []blockCursor
	fromNs, toNs int64
}

// next returns the following run, or ok=false when every input is
// drained.
func (m *merger) next() (run mergeRun, ok bool, err error) {
	for {
		// The input to advance holds the earliest bound; on equal
		// bounds an undecoded block goes first, so that by the time
		// decoded heads are compared every input tied at that instant
		// is decoded.
		best := -1
		var bestT int64
		for i := range m.cs {
			c := &m.cs[i]
			if c.done() {
				continue
			}
			t := c.bound()
			if best < 0 || t < bestT || (t == bestT && m.cs[best].loaded() && !c.loaded()) {
				best, bestT = i, t
			}
		}
		if best < 0 {
			return mergeRun{}, false, nil
		}
		// others is the earliest bound of every other input.
		others := int64(math.MaxInt64)
		alone := true
		for i := range m.cs {
			if c := &m.cs[i]; i != best && !c.done() {
				alone = false
				if t := c.bound(); t < others {
					others = t
				}
			}
		}
		c := &m.cs[best]
		if !c.loaded() {
			blk := c.blocks[0]
			c.blocks = c.blocks[1:]
			// Equal timestamps at the boundary count as interleaving.
			if alone || blk.maxT < others {
				return mergeRun{g: c.g, blk: blk}, true, nil
			}
			c.buf, err = c.g.appendBlock(c.buf[:0], blk, m.fromNs, m.toNs, 0)
			c.pos = 0
			if err != nil {
				return mergeRun{}, false, err
			}
			continue
		}
		if bestT == others {
			// Several decoded heads share the instant: the full order
			// decides, one reading at a time.
			for i := range m.cs {
				o := &m.cs[i]
				if i != best && o.loaded() && o.bound() == bestT && canonLess(&o.buf[o.pos], &c.buf[c.pos]) {
					best, c = i, o
				}
			}
			c.pos++
			return mergeRun{rs: c.buf[c.pos-1 : c.pos]}, true, nil
		}
		rest := c.buf[c.pos:]
		n := len(rest)
		if !alone {
			n = sort.Search(len(rest), func(i int) bool { return rest[i].Time.UnixNano() >= others })
		}
		c.pos += n
		return mergeRun{rs: rest[:n]}, true, nil
	}
}

// appendTo drains the merge into dst, stopping after max readings when
// max > 0. Whole-block runs are decoded straight into dst.
func (m *merger) appendTo(dst []model.Reading, max int) ([]model.Reading, error) {
	n0 := len(dst)
	for {
		left := 0
		if max > 0 {
			if left = max - (len(dst) - n0); left <= 0 {
				return dst, nil
			}
		}
		run, ok, err := m.next()
		if err != nil || !ok {
			return dst, err
		}
		if run.rs == nil {
			if dst, err = run.g.appendBlock(dst, run.blk, m.fromNs, m.toNs, left); err != nil {
				return dst, err
			}
			continue
		}
		if left > 0 && len(run.rs) > left {
			run.rs = run.rs[:left]
		}
		dst = append(dst, run.rs...)
	}
}
