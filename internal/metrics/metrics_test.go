package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 32000 {
		t.Errorf("Value = %d, want 32000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("Value = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	if got := h.Quantile(0.5); got != time.Millisecond {
		t.Errorf("p50 = %v, want 1ms", got)
	}
	if got := h.Quantile(0.99); got != time.Second {
		t.Errorf("p99 = %v, want 1s", got)
	}
	if got := h.Max(); got != time.Second {
		t.Errorf("Max = %v, want 1s", got)
	}
	mean := h.Mean()
	if mean < 100*time.Millisecond || mean > 110*time.Millisecond {
		t.Errorf("Mean = %v, want ~100.9ms", mean)
	}
	// q > 1 clamps, huge value lands in +Inf bucket.
	h.Observe(time.Hour)
	if got := h.Quantile(2); got != time.Hour {
		t.Errorf("clamped quantile = %v, want max", got)
	}
}

// TestHistogramQuantileNotAboveMax: a quantile never reads above the
// largest observation, even when its bucket's bound does.
func TestHistogramQuantileNotAboveMax(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	h.Observe(2440 * time.Microsecond) // in the (1ms, 3ms] bucket
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 2440*time.Microsecond {
			t.Errorf("p%v = %v, want the one observation 2.44ms", q*100, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(time.Millisecond)
	if got := r.Counter("a").Value(); got != 2 {
		t.Errorf("counter a = %d, want 2 (must return same instance)", got)
	}
	snap := r.Snapshot()
	for _, want := range []string{"counter a = 2", "gauge g = 3", "histogram h"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

func TestTrafficMatrix(t *testing.T) {
	m := NewTrafficMatrix()
	m.Record(HopEdgeToFog1, "energy", 100)
	m.Record(HopEdgeToFog1, "energy", 50)
	m.Record(HopEdgeToFog1, "noise", 25)
	m.Record(HopFog1ToFog2, "energy", 75)
	m.Record(HopEdgeToFog1, "energy", -5) // ignored

	if got := m.Bytes(HopEdgeToFog1); got != 175 {
		t.Errorf("edge->fog1 bytes = %d, want 175", got)
	}
	if got := m.BytesByClass(HopEdgeToFog1, "energy"); got != 150 {
		t.Errorf("edge->fog1 energy = %d, want 150", got)
	}
	if got := m.Messages(HopEdgeToFog1); got != 3 {
		t.Errorf("edge->fog1 msgs = %d, want 3", got)
	}
	if got := m.Bytes(HopFog2ToCloud); got != 0 {
		t.Errorf("fog2->cloud bytes = %d, want 0", got)
	}
	classes := m.Classes()
	if len(classes) != 2 || classes[0] != "energy" || classes[1] != "noise" {
		t.Errorf("Classes = %v", classes)
	}
	s := m.String()
	if !strings.Contains(s, "edge->fog1") || !strings.Contains(s, "fog1->fog2") {
		t.Errorf("String missing hops:\n%s", s)
	}
	m.Reset()
	if m.Bytes(HopEdgeToFog1) != 0 || len(m.Classes()) != 0 {
		t.Error("Reset did not clear matrix")
	}
}

func TestTrafficMatrixConcurrent(t *testing.T) {
	m := NewTrafficMatrix()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				m.Record(HopEdgeToCloud, "parking", 10)
			}
		}()
	}
	wg.Wait()
	if got := m.Bytes(HopEdgeToCloud); got != 80000 {
		t.Errorf("bytes = %d, want 80000", got)
	}
}

func TestHopStrings(t *testing.T) {
	for _, h := range Hops() {
		if strings.HasPrefix(h.String(), "hop(") {
			t.Errorf("hop %d has no name", int(h))
		}
	}
	if Hop(99).String() != "hop(99)" {
		t.Error("unknown hop should render numerically")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	prop := func(durations []uint32, qa, qb uint8) bool {
		h := NewHistogram(DefaultLatencyBounds())
		for _, d := range durations {
			h.Observe(time.Duration(d) * time.Microsecond)
		}
		q1 := float64(qa%100+1) / 100
		q2 := float64(qb%100+1) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return h.Quantile(q1) <= h.Quantile(q2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestHistogramMaxDominatesProperty(t *testing.T) {
	prop := func(durations []uint32, qa uint8) bool {
		h := NewHistogram(DefaultLatencyBounds())
		var max time.Duration
		for _, d := range durations {
			v := time.Duration(d) * time.Microsecond
			h.Observe(v)
			if v > max {
				max = v
			}
		}
		return h.Max() == max && h.Quantile(float64(qa%100+1)/100) <= max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMessagesByClass(t *testing.T) {
	m := NewTrafficMatrix()
	m.Record(HopFog1ToFog2, "urban", 10)
	m.Record(HopFog1ToFog2, "urban", 10)
	m.Record(HopFog1ToFog2, "energy", 10)
	if got := m.MessagesByClass(HopFog1ToFog2, "urban"); got != 2 {
		t.Errorf("urban messages = %d, want 2", got)
	}
	if got := m.MessagesByClass(HopFog1ToFog2, "noise"); got != 0 {
		t.Errorf("noise messages = %d, want 0", got)
	}
}
