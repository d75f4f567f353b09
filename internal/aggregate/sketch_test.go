package aggregate

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	cm, err := NewCountMin(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]uint64{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("sensor-%d", i%50)
		cm.Add(key, uint64(1+i%3))
		truth[key] += uint64(1 + i%3)
	}
	for key, want := range truth {
		if got := cm.Estimate(key); got < want {
			t.Errorf("%s: estimate %d < true %d (count-min must overcount)", key, got, want)
		}
	}
	var total uint64
	for _, v := range truth {
		total += v
	}
	if cm.Total() != total {
		t.Errorf("total = %d, want %d", cm.Total(), total)
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// eps=0.01, delta=0.01 -> estimates within eps*total with
	// probability 1-delta; over 50 keys none should blow through a
	// generous multiple of the bound.
	// rows = ceil(ln(1/delta)) = 5, cols = ceil(e/eps) = 272.
	cm, err := NewCountMin(5, 272)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		cm.Add(fmt.Sprintf("k%d", i%50), 1)
	}
	slack := uint64(float64(cm.Total()) * 0.05)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if got := cm.Estimate(key); got > 200+slack {
			t.Errorf("%s: estimate %d far above true 200", key, got)
		}
	}
}

func TestCountMinMergeEqualsUnionStream(t *testing.T) {
	a, _ := NewCountMin(4, 128)
	b, _ := NewCountMin(4, 128)
	u, _ := NewCountMin(4, 128)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%d", i%30)
		if i%2 == 0 {
			a.Add(key, 1)
		} else {
			b.Add(key, 1)
		}
		u.Add(key, 1)
	}
	merged := a.Clone()
	if err := merged.Merge(b); err != nil {
		t.Fatal(err)
	}
	if merged.Total() != u.Total() {
		t.Errorf("merged total %d != union total %d", merged.Total(), u.Total())
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%d", i)
		if merged.Estimate(key) != u.Estimate(key) {
			t.Errorf("%s: merged %d != union %d", key, merged.Estimate(key), u.Estimate(key))
		}
	}
}

func TestCountMinValidation(t *testing.T) {
	if _, err := NewCountMin(0, 8); err == nil {
		t.Error("zero rows must fail")
	}
	if _, err := NewCountMin(2, 0); err == nil {
		t.Error("zero cols must fail")
	}
	a, _ := NewCountMin(2, 8)
	b, _ := NewCountMin(3, 8)
	if err := a.Merge(b); err == nil {
		t.Error("dimension mismatch must fail")
	}
	a.Add("x", 0) // no-op
	if a.Total() != 0 {
		t.Error("Add(0) must not count")
	}
}

func TestCountMinOverestimateProperty(t *testing.T) {
	prop := func(keys []string) bool {
		cm, err := NewCountMin(3, 64)
		if err != nil {
			return false
		}
		truth := map[string]uint64{}
		for _, k := range keys {
			cm.Add(k, 1)
			truth[k]++
		}
		for k, want := range truth {
			if cm.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKMVExactBelowK(t *testing.T) {
	s, err := NewKMV(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.Add(fmt.Sprintf("sensor-%d", i))
		s.Add(fmt.Sprintf("sensor-%d", i)) // duplicates ignored
	}
	if got := s.Estimate(); got != 40 {
		t.Errorf("estimate = %v, want exactly 40 (below k)", got)
	}
	if s.Distinct() != 40 {
		t.Errorf("distinct = %d", s.Distinct())
	}
}

func TestKMVApproximatesLargeCardinality(t *testing.T) {
	s, err := NewKMV(256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		s.Add(fmt.Sprintf("sensor-%d", i))
	}
	got := s.Estimate()
	if math.Abs(got-n)/n > 0.15 {
		t.Errorf("estimate = %.0f, want %d +/- 15%%", got, n)
	}
}

func TestKMVMergeApproximatesUnion(t *testing.T) {
	a, _ := NewKMV(256)
	b, _ := NewKMV(256)
	// Overlapping streams: union is 15000 distinct.
	for i := 0; i < 10000; i++ {
		a.Add(fmt.Sprintf("s%d", i))
	}
	for i := 5000; i < 15000; i++ {
		b.Add(fmt.Sprintf("s%d", i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Estimate()
	if math.Abs(got-15000)/15000 > 0.15 {
		t.Errorf("merged estimate = %.0f, want 15000 +/- 15%%", got)
	}
}

func TestKMVMergeCommutativeProperty(t *testing.T) {
	prop := func(xs, ys []uint16) bool {
		a1, _ := NewKMV(32)
		b1, _ := NewKMV(32)
		a2, _ := NewKMV(32)
		b2, _ := NewKMV(32)
		for _, x := range xs {
			a1.Add(fmt.Sprint(x))
			a2.Add(fmt.Sprint(x))
		}
		for _, y := range ys {
			b1.Add(fmt.Sprint(y))
			b2.Add(fmt.Sprint(y))
		}
		if err := a1.Merge(b1); err != nil {
			return false
		}
		if err := b2.Merge(a2); err != nil {
			return false
		}
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKMVValidation(t *testing.T) {
	if _, err := NewKMV(0); err == nil {
		t.Error("zero k must fail")
	}
	a, _ := NewKMV(8)
	b, _ := NewKMV(16)
	if err := a.Merge(b); err == nil {
		t.Error("k mismatch must fail")
	}
}

func TestKMVBoundedMemory(t *testing.T) {
	s, _ := NewKMV(16)
	for i := 0; i < 10000; i++ {
		s.Add(fmt.Sprintf("x%d", i))
	}
	if s.Distinct() != 16 {
		t.Errorf("sketch holds %d hashes, want capped at 16", s.Distinct())
	}
}

func TestCountMinCloneIndependence(t *testing.T) {
	a, _ := NewCountMin(3, 64)
	a.Add("x", 5)
	cp := a.Clone()
	cp.Add("x", 5)
	if a.Estimate("x") != 5 {
		t.Errorf("original mutated by clone: %d", a.Estimate("x"))
	}
	if cp.Estimate("x") != 10 {
		t.Errorf("clone = %d, want 10", cp.Estimate("x"))
	}
	if a.Total() != 5 || cp.Total() != 10 {
		t.Errorf("totals = %d / %d", a.Total(), cp.Total())
	}
}

// Distinct returns how many distinct hashes the sketch holds (<= k).
func (s *KMV) Distinct() int { return len(s.hashes) }

// Total returns the number of counted occurrences: every Add adds n
// to one cell of each row, so any row sums to the total.
func (cm *CountMin) Total() uint64 {
	var total uint64
	for _, c := range cm.counts[0] {
		total += c
	}
	return total
}
