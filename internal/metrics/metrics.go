// Package metrics provides the lightweight instrumentation substrate
// used across the F2C system: counters, gauges, fixed-bucket latency
// histograms, and the per-hop network-traffic matrix that the paper's
// evaluation is built on.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter, safe for
// concurrent use. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable 64-bit value, safe for concurrent use. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records durations into logarithmic buckets. It is safe for
// concurrent use. Construct with NewHistogram.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
	max    atomic.Int64
}

// DefaultLatencyBounds covers 100µs .. ~100s in roughly x3 steps,
// suitable for both fog-local (sub-ms) and WAN (tens of ms) paths.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		100 * time.Microsecond,
		300 * time.Microsecond,
		time.Millisecond,
		3 * time.Millisecond,
		10 * time.Millisecond,
		30 * time.Millisecond,
		100 * time.Millisecond,
		300 * time.Millisecond,
		time.Second,
		3 * time.Second,
		10 * time.Second,
		30 * time.Second,
		100 * time.Second,
	}
}

// NewHistogram creates a histogram with the given ascending bucket
// upper bounds. An implicit +Inf bucket is appended.
func NewHistogram(bounds []time.Duration) *Histogram {
	bs := make([]time.Duration, len(bounds))
	copy(bs, bounds)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	idx := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[idx].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the bucket holding it, or Max when that is lower (no
// observation exceeds Max) or the bucket is +Inf.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return min(h.bounds[i], h.Max())
			}
			return h.Max()
		}
	}
	return h.Max()
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with default latency bounds,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(DefaultLatencyBounds())
		r.histograms[name] = h
	}
	return h
}

// Snapshot renders all metrics as a sorted, human-readable block,
// suitable for status endpoints and test assertions.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s = %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s = %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		lines = append(lines, fmt.Sprintf("histogram %s: n=%d mean=%v p99<=%v max=%v",
			name, h.Count(), h.Mean(), h.Quantile(0.99), h.Max()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
