package aggregate

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// This file implements the "sketches" and "counting" classes of the
// distributed-aggregation taxonomy the paper builds on (Jesus et al.):
// mergeable summaries that fog nodes can compute independently and
// combine upward without exchanging raw data. The paper lists richer
// aggregation as future work; these are the standard candidates.

// CountMin is a count-min sketch: a fixed-size frequency summary with
// one-sided error (estimates never undercount). Sketches with equal
// dimensions merge by cell-wise addition, which makes them
// decomposable across the hierarchy. Not safe for concurrent use.
type CountMin struct {
	rows, cols int
	counts     [][]uint64
}

// NewCountMin creates a sketch. Error bounds: with cols = ceil(e/eps)
// and rows = ceil(ln(1/delta)), estimates exceed true counts by at
// most eps*total with probability 1-delta.
func NewCountMin(rows, cols int) (*CountMin, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("aggregate: count-min needs positive dimensions, got %dx%d", rows, cols)
	}
	counts := make([][]uint64, rows)
	for i := range counts {
		counts[i] = make([]uint64, cols)
	}
	return &CountMin{rows: rows, cols: cols, counts: counts}, nil
}

// hashRow derives the row-i bucket for a key.
func (cm *CountMin) hashRow(key string, row int) int {
	h := fnv.New64a()
	// Per-row seed byte keeps the row hashes independent enough for
	// the sketch guarantee in practice.
	_, _ = h.Write([]byte{byte(row), byte(row >> 8)})
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(cm.cols))
}

// Add counts n occurrences of key.
func (cm *CountMin) Add(key string, n uint64) {
	if n == 0 {
		return
	}
	for r := 0; r < cm.rows; r++ {
		cm.counts[r][cm.hashRow(key, r)] += n
	}
}

// Estimate returns an upper-biased count for key.
func (cm *CountMin) Estimate(key string) uint64 {
	est := uint64(math.MaxUint64)
	for r := 0; r < cm.rows; r++ {
		if c := cm.counts[r][cm.hashRow(key, r)]; c < est {
			est = c
		}
	}
	return est
}

// Merge adds another sketch's counts into this one. Dimensions must
// match.
func (cm *CountMin) Merge(o *CountMin) error {
	if o.rows != cm.rows || o.cols != cm.cols {
		return fmt.Errorf("aggregate: count-min dimension mismatch: %dx%d vs %dx%d",
			cm.rows, cm.cols, o.rows, o.cols)
	}
	for r := 0; r < cm.rows; r++ {
		for c := 0; c < cm.cols; c++ {
			cm.counts[r][c] += o.counts[r][c]
		}
	}
	return nil
}

// Clone deep-copies the sketch.
func (cm *CountMin) Clone() *CountMin {
	cp, _ := NewCountMin(cm.rows, cm.cols)
	for r := range cm.counts {
		copy(cp.counts[r], cm.counts[r])
	}
	return cp
}

// KMV is a k-minimum-values sketch estimating the number of distinct
// keys in a stream (the taxonomy's randomized counting class). Two
// KMV sketches with the same k merge by keeping the k smallest hashes
// of their union. Not safe for concurrent use.
type KMV struct {
	k      int
	hashes []uint64 // sorted ascending, at most k, distinct
}

// NewKMV creates a sketch keeping the k smallest hashes. Larger k
// gives tighter estimates (relative error ~ 1/sqrt(k)).
func NewKMV(k int) (*KMV, error) {
	if k <= 0 {
		return nil, fmt.Errorf("aggregate: kmv needs positive k, got %d", k)
	}
	return &KMV{k: k, hashes: make([]uint64, 0, k)}, nil
}

func kmvHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is a murmur3-style finalizer: FNV-1a alone avalanches poorly
// on short keys, which skews the order statistics KMV relies on.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add observes a key.
func (s *KMV) Add(key string) {
	h := kmvHash(key)
	idx := sort.Search(len(s.hashes), func(i int) bool { return s.hashes[i] >= h })
	if idx < len(s.hashes) && s.hashes[idx] == h {
		return // already tracked
	}
	if len(s.hashes) == s.k {
		if idx == s.k {
			return // larger than the current k-th minimum
		}
		s.hashes = s.hashes[:s.k-1]
	}
	s.hashes = append(s.hashes, 0)
	copy(s.hashes[idx+1:], s.hashes[idx:])
	s.hashes[idx] = h
}

// Estimate returns the approximate number of distinct keys observed.
func (s *KMV) Estimate() float64 {
	n := len(s.hashes)
	if n < s.k {
		// Fewer than k distinct hashes seen: the count is exact.
		return float64(n)
	}
	kth := float64(s.hashes[n-1])
	return (float64(s.k) - 1) / (kth / float64(math.MaxUint64))
}

// Merge combines another sketch's observations (same k required).
func (s *KMV) Merge(o *KMV) error {
	if o.k != s.k {
		return fmt.Errorf("aggregate: kmv k mismatch: %d vs %d", s.k, o.k)
	}
	merged := make([]uint64, 0, len(s.hashes)+len(o.hashes))
	merged = append(merged, s.hashes...)
	merged = append(merged, o.hashes...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	// Deduplicate and truncate to k.
	out := merged[:0]
	var prev uint64
	for i, h := range merged {
		if i > 0 && h == prev {
			continue
		}
		out = append(out, h)
		prev = h
		if len(out) == s.k {
			break
		}
	}
	s.hashes = append(s.hashes[:0], out...)
	return nil
}
