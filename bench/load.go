package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/transport"
)

// sendTimeout bounds one edge send; nothing on a healthy loopback
// city comes near it.
const sendTimeout = 10 * time.Second

// ingestSpec is the write side of a workload.
type ingestSpec struct {
	// senders is the number of load goroutines (at most 2).
	senders int
	// types are the typeOrder positions the senders cycle through.
	types []int
	// batch is the readings per batch (one per simulated sensor).
	batch int
	// Closed loop: each sender sends its next batch when the previous
	// one is acknowledged, batches in total across the senders.
	// Open loop: the senders together send rate batches per second on
	// a fixed timetable for the length of the window, and every send
	// is timed from the instant it was due.
	closed  bool
	batches int
	rate    float64
}

// typeGen is one sender's generator for one sensor type, plus the
// reference redundant-data elimination: a reading is kept when its
// sensor reports for the first time or reports a value other than its
// previous one — what aggregate.Deduper must arrive at on its own.
type typeGen struct {
	target string
	class  string
	gen    *sensor.Generator
	last   []float64
	seen   bool
}

func newTypeGen(pos int, nodeID string, sensors int, seed int64, target string) (*typeGen, error) {
	st := catalogType(typeOrder[pos])
	g, err := sensor.NewGenerator(sensor.Config{
		Type: st, NodeID: nodeID, Sensors: sensors, Seed: seed, Redundancy: -1,
	})
	if err != nil {
		return nil, err
	}
	return &typeGen{target: target, class: st.Category.String(), gen: g, last: make([]float64, sensors)}, nil
}

// next generates the following batch and returns it with the number
// of its readings the reference elimination keeps.
func (tg *typeGen) next(now time.Time) (*model.Batch, int) {
	b := tg.gen.Next(now)
	kept := 0
	for i := range b.Readings {
		if v := b.Readings[i].Value; !tg.seen || v != tg.last[i] {
			kept++
			tg.last[i] = v
		}
	}
	tg.seen = true
	return b, kept
}

// senderStats is what one load goroutine measured.
type senderStats struct {
	sent, failed, rejected int   // batches
	readings, kept         int64 // readings acked, and the reference kept count among them
	payloadBytes           int64
	ackMS, lateMS          []float64
	encode                 time.Duration
	first                  time.Time // start of the first send
}

// sender is one load goroutine: its generators and its buffers.
type sender struct {
	c     *city
	gens  []*typeGen
	buf   []byte
	stats senderStats
}

// newSenders builds the load goroutines' state. Generator seeds are
// seed + worker*100 + type position, and every sender has its own
// sensor population (node id "edge/w<worker>"), so the kept count is
// a function of the seed alone however the senders interleave.
func newSenders(c *city, spec ingestSpec, seed int64) ([]*sender, error) {
	out := make([]*sender, spec.senders)
	for w := range out {
		s := &sender{c: c}
		for _, pos := range spec.types {
			tg, err := newTypeGen(pos, fmt.Sprintf("edge/w%d", w), spec.batch,
				seed+int64(w)*100+int64(pos), c.fog1[ownerOf(pos)].id)
			if err != nil {
				return nil, err
			}
			s.gens = append(s.gens, tg)
		}
		out[w] = s
	}
	return out, nil
}

// send generates, encodes and sends batch number i, timing the
// acknowledgement from due (zero: from the send itself).
func (s *sender) send(i int, due time.Time) {
	tg := s.gens[i%len(s.gens)]
	start := time.Now()
	b, kept := tg.next(s.c.clock.Now())
	payload, err := protocol.AppendBatchPayload(s.buf[:0], b, aggregate.CodecNone)
	if err != nil {
		s.stats.sent++
		s.stats.failed++
		return
	}
	s.buf = payload
	sendStart := time.Now()
	s.stats.encode += sendStart.Sub(start)
	if s.stats.first.IsZero() {
		s.stats.first = start
	}
	from := sendStart
	if !due.IsZero() {
		from = due
		s.stats.lateMS = append(s.stats.lateMS, ms(start.Sub(due)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
	_, err = s.c.client.Send(ctx, transport.Message{
		From: b.NodeID, To: tg.target, Kind: transport.KindBatch, Class: tg.class, Payload: payload,
	})
	cancel()
	done := time.Now()
	s.stats.sent++
	switch {
	case transport.IsOverload(err):
		s.stats.rejected++
	case err != nil:
		s.stats.failed++
	default:
		s.stats.readings += int64(len(b.Readings))
		s.stats.kept += int64(kept)
		s.stats.payloadBytes += transport.WireSizeOf(len(payload))
		s.stats.ackMS = append(s.stats.ackMS, ms(done.Sub(from)))
	}
}

// runIngest drives the write side from start until the closed loop
// has sent its batches or the open loop's window ends, and returns
// the senders' merged statistics.
func runIngest(senders []*sender, spec ingestSpec, start time.Time, window time.Duration) senderStats {
	var wg sync.WaitGroup
	for w, s := range senders {
		s.stats = senderStats{}
		wg.Add(1)
		go func(w int, s *sender) {
			defer wg.Done()
			time.Sleep(time.Until(start))
			// Senders start on different types, so they load different
			// fog1 nodes at any instant instead of marching in step.
			skew := w * len(s.gens) / len(senders)
			if spec.closed {
				for i := w; i < spec.batches; i += len(senders) {
					s.send(i/len(senders)+skew, time.Time{})
				}
				return
			}
			// Sender w owns timetable entries w, w+n, w+2n, ...
			gap := time.Duration(float64(time.Second) / spec.rate)
			for k := w; ; k += len(senders) {
				due := start.Add(time.Duration(k) * gap)
				if due.Sub(start) >= window {
					return
				}
				time.Sleep(time.Until(due))
				s.send(k/len(senders)+skew, due)
			}
		}(w, s)
	}
	wg.Wait()
	return mergeStats(senders)
}

func mergeStats(senders []*sender) senderStats {
	var m senderStats
	for _, s := range senders {
		st := s.stats
		m.sent += st.sent
		m.failed += st.failed
		m.rejected += st.rejected
		m.readings += st.readings
		m.kept += st.kept
		m.payloadBytes += st.payloadBytes
		m.encode += st.encode
		m.ackMS = append(m.ackMS, st.ackMS...)
		m.lateMS = append(m.lateMS, st.lateMS...)
		if m.first.IsZero() || (!st.first.IsZero() && st.first.Before(m.first)) {
			m.first = st.first
		}
	}
	return m
}
