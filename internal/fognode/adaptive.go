package fognode

import (
	"sync"
	"time"

	"f2c/internal/metrics"
)

// adaptiveBounds are the adaptive flush controller's limits: an EWMA
// of the parent round-trip time plus the local queue depth drive the
// flush batch size and interval between floor and ceiling — the
// paper's "strategically decided" upward frequency, decided
// continuously by the network instead of once by the operator.
type adaptiveBounds struct {
	// minBatch / maxBatch bound the per-send batch size in readings.
	// The controller starts midway.
	minBatch, maxBatch int
	// minInterval / maxInterval bound the background flush cadence.
	minInterval, maxInterval time.Duration
	// targetRTT is the parent round-trip the controller steers toward:
	// below it batches grow and flushes accelerate, beyond twice it
	// they shrink and slow down.
	targetRTT time.Duration
	// alpha is the RTT EWMA smoothing factor in (0, 1].
	alpha float64
}

// adaptiveBoundsFor derives a node's bounds from its flush interval:
// batches of 64 to 8192 readings, a cadence between an eighth of the
// interval and the interval itself, a 50ms target RTT and an EWMA
// weight of 0.2.
func adaptiveBoundsFor(flushInterval time.Duration) adaptiveBounds {
	minInterval := flushInterval / 8
	if minInterval <= 0 {
		minInterval = time.Second
	}
	return adaptiveBounds{
		minBatch: 64, maxBatch: 8192,
		minInterval: minInterval, maxInterval: max(flushInterval, minInterval),
		targetRTT: 50 * time.Millisecond, alpha: 0.2,
	}
}

// flushController is the adaptive-batch state machine. AIMD over the
// batch size: backpressure halves it (and doubles the interval), a
// healthy RTT with a drained queue grows it additively (and shortens
// the interval), an RTT past twice the target decays both. All methods
// are safe for concurrent use.
type flushController struct {
	cfg adaptiveBounds

	mu          sync.Mutex
	ewma        time.Duration // smoothed parent RTT; 0 = no sample yet
	batch       int
	ivl         time.Duration
	backpressed bool // since the last onFlushDone

	gBatch *metrics.Gauge
	gIvl   *metrics.Gauge
	gRTT   *metrics.Gauge
}

// newFlushController builds a controller starting midway between the
// batch bounds at the slowest cadence.
func newFlushController(cfg adaptiveBounds, reg *metrics.Registry, prefix string) *flushController {
	c := &flushController{
		cfg:   cfg,
		batch: (cfg.minBatch + cfg.maxBatch) / 2,
		ivl:   cfg.maxInterval,
	}
	if reg != nil {
		c.gBatch = reg.Gauge(prefix + "flush.adaptive.batch")
		c.gIvl = reg.Gauge(prefix + "flush.adaptive.interval_ms")
		c.gRTT = reg.Gauge(prefix + "flush.adaptive.rtt_ewma_us")
		c.publishLocked()
	}
	return c
}

// publishLocked refreshes the gauges. Caller holds c.mu (or owns c
// exclusively during construction).
func (c *flushController) publishLocked() {
	if c.gBatch == nil {
		return
	}
	c.gBatch.Set(int64(c.batch))
	c.gIvl.Set(int64(c.ivl / time.Millisecond))
	c.gRTT.Set(int64(c.ewma / time.Microsecond))
}

// batchSize returns the current per-send batch bound in readings.
func (c *flushController) batchSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batch
}

// interval returns the current background flush cadence.
func (c *flushController) interval() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ivl
}

// observeRTT folds one parent round-trip sample into the EWMA.
func (c *flushController) observeRTT(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	if c.ewma == 0 {
		c.ewma = d
	} else {
		c.ewma = time.Duration(c.cfg.alpha*float64(d) + (1-c.cfg.alpha)*float64(c.ewma))
	}
	c.publishLocked()
	c.mu.Unlock()
}

// onBackpressure reacts to a deferred send (window exhausted or peer
// overloaded): multiplicative decrease on the batch, doubled interval.
func (c *flushController) onBackpressure() {
	c.mu.Lock()
	c.backpressed = true
	c.batch /= 2
	if c.batch < c.cfg.minBatch {
		c.batch = c.cfg.minBatch
	}
	c.ivl *= 2
	if c.ivl > c.cfg.maxInterval {
		c.ivl = c.cfg.maxInterval
	}
	c.publishLocked()
	c.mu.Unlock()
}

// onFlushDone closes one flush round given the post-flush queue depth
// (readings still buffered): with no backpressure this round, a
// healthy RTT and a queue the current batch can clear, the batch grows
// additively and the cadence accelerates; an RTT past twice the target
// decays both toward gentler load.
func (c *flushController) onFlushDone(queueDepth int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bp := c.backpressed
	c.backpressed = false
	defer c.publishLocked()
	if bp {
		return // the decrease already happened at the send
	}
	switch {
	case c.ewma > 2*c.cfg.targetRTT:
		c.batch = c.batch * 3 / 4
		if c.batch < c.cfg.minBatch {
			c.batch = c.cfg.minBatch
		}
		c.ivl = c.ivl * 5 / 4
		if c.ivl > c.cfg.maxInterval {
			c.ivl = c.cfg.maxInterval
		}
	case c.ewma <= c.cfg.targetRTT && queueDepth < c.batch:
		grow := c.batch / 4
		if grow < 1 {
			grow = 1
		}
		c.batch += grow
		if c.batch > c.cfg.maxBatch {
			c.batch = c.cfg.maxBatch
		}
		c.ivl = c.ivl * 3 / 4
		if c.ivl < c.cfg.minInterval {
			c.ivl = c.cfg.minInterval
		}
	}
}
