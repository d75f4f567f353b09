package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/config"
	"f2c/internal/cq"
	"f2c/internal/describe"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/quality"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sensor"
	"f2c/internal/sim"
	"f2c/internal/store"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
	"f2c/internal/wal"
)

// The layer pass feeds the first layerBatches generated batches of
// the burst shape (1000 readings, 8 types) and of the paced shape
// (100 readings, 16 types) straight into each layer's public
// functions, single goroutine unless stated, layerPasses times over
// fresh state, and reports the median pass. It re-states the per-PR
// microbenchmark headlines as metrics of this one document.
const (
	layerBatches = 64
	layerPasses  = 5
)

// layerInputs are the generated batches every layer is fed.
type layerInputs struct {
	fat, small []*model.Batch // burst and paced shapes
	now        time.Time      // the batches' collection instant
}

func readingsIn(bs []*model.Batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.Readings)
	}
	return n
}

func generateInputs(seed int64) (layerInputs, error) {
	in := layerInputs{now: time.Now().Truncate(time.Second)}
	shape := func(types, sensors int) ([]*model.Batch, error) {
		gens := make([]*typeGen, types)
		for pos := range gens {
			var err error
			if gens[pos], err = newTypeGen(pos, "edge/w0", sensors, seed+int64(pos), ""); err != nil {
				return nil, err
			}
		}
		out := make([]*model.Batch, layerBatches)
		for i := range out {
			// One simulated second between rounds keeps sensor series
			// in time order, as live ingest has them.
			out[i], _ = gens[i%types].next(in.now.Add(time.Duration(i/types) * time.Second))
		}
		return out, nil
	}
	var err error
	if in.fat, err = shape(8, 1000); err != nil {
		return in, err
	}
	in.small, err = shape(16, 100)
	return in, err
}

// timed runs layerPasses passes and returns the median pass duration
// and the mean heap allocations per pass. setup builds a pass's fresh
// state outside the clock and returns the pass and its cleanup.
func timed(setup func() (run func(), cleanup func())) (time.Duration, float64) {
	durs := make([]float64, 0, layerPasses)
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for p := 0; p < layerPasses; p++ {
		run, cleanup := setup()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		run()
		durs = append(durs, float64(time.Since(start)))
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if cleanup != nil {
			cleanup()
		}
	}
	return time.Duration(median(durs)), float64(mallocs) / layerPasses
}

// once adapts a stateless pass to timed.
func once(run func()) func() (func(), func()) {
	return func() (func(), func()) { return run, nil }
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// layerPass fills in the L-sourced metrics.
func layerPass(m map[string]float64, cfg runConfig) error {
	in, err := generateInputs(cfg.seed)
	if err != nil {
		return err
	}
	root := filepath.Join(cfg.dir, "layers")
	defer os.RemoveAll(root)
	dirs := 0
	freshDir := func() string {
		dirs++
		return filepath.Join(root, fmt.Sprintf("d%03d", dirs))
	}
	fatN, smallN := float64(readingsIn(in.fat)), float64(readingsIn(in.small))
	perReading := func(d time.Duration, n float64) float64 { return float64(d) / n }
	var failMu sync.Mutex // the two-goroutine passes report failures too
	var failed error
	fail := func(err error) {
		if err != nil {
			failMu.Lock()
			if failed == nil {
				failed = err
			}
			failMu.Unlock()
		}
	}
	clock := sim.NewVirtualClock(in.now.Add(time.Minute))

	// sensor: the wire text of a batch.
	wires := make([][]byte, len(in.fat))
	var buf []byte
	d, _ := timed(once(func() {
		for _, b := range in.fat {
			buf = sensor.AppendBatch(buf[:0], b)
		}
	}))
	m["sensor.append_batch_ns_per_reading"] = perReading(d, fatN)
	for i, b := range in.fat {
		wires[i] = sensor.EncodeBatch(b)
	}
	d, _ = timed(once(func() {
		for _, w := range wires {
			_, err := sensor.DecodeBatch(w)
			fail(err)
		}
	}))
	m["sensor.decode_batch_ns_per_reading"] = perReading(d, fatN)

	// protocol + aggregate: seal (wire-encode + zip) and open.
	var sealer protocol.Sealer
	var sealed []byte
	d, allocs := timed(once(func() {
		for i, b := range in.fat {
			var err error
			sealed, err = sealer.SealSeq(sealed[:0], b, aggregate.CodecZip, uint64(i+1))
			fail(err)
		}
	}))
	m["protocol.seal_ns_per_reading"] = perReading(d, fatN)
	m["protocol.seal_allocs_per_batch"] = allocs / layerBatches
	payloads := make([][]byte, len(in.fat))
	var wireBytes, sealedBytes float64
	for i, b := range in.fat {
		p, err := sealer.SealSeq(nil, b, aggregate.CodecZip, uint64(i+1))
		fail(err)
		payloads[i] = p
		wireBytes += float64(len(wires[i]))
		sealedBytes += float64(len(p))
	}
	m["aggregate.compress_ratio"] = wireBytes / sealedBytes
	d, allocs = timed(once(func() {
		for _, p := range payloads {
			_, _, _, err := protocol.DecodeBatchPayloadSeq(p)
			fail(err)
		}
	}))
	m["protocol.open_ns_per_reading"] = perReading(d, fatN)
	m["protocol.open_allocs_per_batch"] = allocs / layerBatches

	// The acquisition stages on their own.
	d, _ = timed(func() (func(), func()) {
		dd := aggregate.NewDeduper()
		return func() {
			for _, b := range in.fat {
				dd.Filter(b)
			}
		}, nil
	})
	m["aggregate.dedup_ns_per_reading"] = perReading(d, fatN)
	assessor := quality.NewAssessor(nil)
	d, _ = timed(once(func() {
		for _, b := range in.fat {
			assessor.Assess(b, clock.Now())
		}
	}))
	m["quality.assess_ns_per_reading"] = perReading(d, fatN)
	describer := describe.NewDescriber(cityName, "d01", "s01", model.GeoPoint{}, "f2c")
	d, _ = timed(once(func() {
		for _, b := range in.small {
			describer.Describe(b, 1)
		}
	}))
	m["describe.describe_ns_per_batch"] = float64(d) / layerBatches

	// fognode: the whole ingest call on the paced shape, in RAM, with
	// the delivery journal, and with the journal under two goroutines
	// on disjoint types (the node-wide journal mutex).
	spec := topology.NodeSpec{ID: "fog1/layer", Layer: topology.LayerFog1, Parent: "fog2/layer", Name: "layer"}
	ingestPass := func(durable bool, goroutines int) (time.Duration, string) {
		var lastDir string
		d, _ := timed(func() (func(), func()) {
			c := fognode.Config{Spec: spec, City: cityName, Clock: clock, Dedup: true, Quality: true, Codec: aggregate.CodecZip}
			if durable {
				lastDir = freshDir()
				c.Durability = &wal.Config{Dir: lastDir}
			}
			n, err := fognode.New(c)
			if err != nil {
				fail(err)
				return func() {}, nil
			}
			return func() {
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						// Types alternate by batch index, so striding by
						// the goroutine count keeps the types disjoint.
						for i := g; i < len(in.small); i += goroutines {
							fail(n.Ingest(in.small[i]))
						}
					}(g)
				}
				wg.Wait()
			}, n.Discard
		})
		return d, lastDir
	}
	d, _ = ingestPass(false, 1)
	m["fognode.ingest_ns_per_reading"] = perReading(d, smallN)
	d, journalDir := ingestPass(true, 1)
	m["fognode.ingest_durable_ns_per_reading"] = perReading(d, smallN)
	m["wal.bytes_per_reading"] = float64(dirBytes(journalDir)) / smallN
	d, _ = ingestPass(true, 2)
	m["fognode.ingest_durable_par2_ns_per_reading"] = perReading(d, smallN)

	// wal: one framed append per paced-shape batch.
	records := make([][]byte, len(in.small))
	for i, b := range in.small {
		records[i] = sensor.EncodeBatch(b)
	}
	d, _ = timed(func() (func(), func()) {
		w, err := wal.Open(wal.Config{Dir: freshDir()})
		if err != nil {
			fail(err)
			return func() {}, nil
		}
		return func() {
			for _, r := range records {
				fail(w.Append(r))
			}
		}, func() { _ = w.Close() }
	})
	m["wal.append_ns_per_record"] = float64(d) / layerBatches

	// store: the RAM temporal store and the cloud archive.
	var ts *store.TimeSeries
	d, _ = timed(func() (func(), func()) {
		ts = store.NewTimeSeries(0)
		return func() {
			for _, b := range in.fat {
				fail(ts.Append(b))
			}
		}, nil
	})
	m["store.append_ns_per_reading"] = perReading(d, fatN)
	from, to := in.now.Add(-time.Hour), in.now.Add(time.Hour)
	d, _ = timed(once(func() {
		for pos := 0; pos < 8; pos++ {
			ts.QueryRange(typeOrder[pos], from, to)
		}
	}))
	m["store.range_ns_per_reading"] = perReading(d, fatN)
	d, _ = timed(func() (func(), func()) {
		a := store.NewArchive()
		prov := []string{"fog1/layer", "fog2/layer", "cloud"}
		return func() {
			for _, b := range in.fat {
				_, err := a.Put(b, prov, in.now)
				fail(err)
			}
		}, nil
	})
	m["store.archive_put_ns_per_reading"] = perReading(d, fatN)

	// segment: journaled memtable append, flush to a segment file,
	// and a cold range scan after flush + compaction.
	var seg *segment.Store
	var segDir string
	closeSeg := func() {
		if seg != nil {
			_ = seg.Close()
			seg = nil
		}
	}
	d, _ = timed(func() (func(), func()) {
		closeSeg()
		segDir = freshDir()
		s, err := segment.Open(segment.Options{Dir: segDir, NoBackground: true})
		if err != nil {
			fail(err)
			return func() {}, nil
		}
		seg = s
		return func() {
			for _, b := range in.fat {
				fail(seg.Append(b))
			}
		}, nil
	})
	defer closeSeg()
	m["segment.append_ns_per_reading"] = perReading(d, fatN)
	if seg != nil {
		memtable := float64(seg.Stats().ApproxBytes)
		start := time.Now()
		fail(seg.Flush())
		m["segment.flush_ms_per_mib"] = ms(time.Since(start)) / (memtable / (1 << 20))
		_, err := seg.Compact()
		fail(err)
		d, _ = timed(once(func() {
			for pos := 0; pos < 8; pos++ {
				seg.QueryRange(typeOrder[pos], from, to)
			}
		}))
		m["segment.range_cold_ns_per_reading"] = perReading(d, fatN)
		m["segment.disk_bytes_per_reading"] = float64(dirBytes(segDir)) / fatN
	}

	// The per-batch gates of the production profile.
	const gateOps = 20000
	origins := make([]string, 8)
	for i := range origins {
		origins[i] = fmt.Sprintf("fog1/o%d", i)
	}
	d, _ = timed(func() (func(), func()) {
		f := protocol.NewReplayFilter(0)
		return func() {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < gateOps; i += 2 {
						o, seq := origins[i%len(origins)], uint64(i/len(origins)+1)
						if !f.Seen(o, seq) {
							f.Mark(o, seq)
						}
					}
				}(g)
			}
			wg.Wait()
		}, nil
	})
	m["protocol.replay_ns_per_op"] = float64(d) / gateOps
	d, _ = timed(func() (func(), func()) {
		s := sched.New(config.OverloadOptions(0), sim.WallClock{}, metrics.NewRegistry(), "layer.sched.")
		ctx := context.Background()
		return func() {
			for i := 0; i < gateOps; i++ {
				release, err := s.Admit(ctx, "ingest", 8<<10)
				if err != nil {
					fail(err)
					return
				}
				release()
			}
		}, nil
	})
	m["sched.admit_ns_per_op"] = float64(d) / gateOps
	d, _ = timed(func() (func(), func()) {
		e := cq.NewEngine()
		for pos := 0; pos < 16; pos += 4 {
			typ := typeOrder[pos]
			fail(e.Subscribe(cq.Subscription{ID: "win-" + typ, TypeName: typ, Kind: cq.KindWindow, Window: time.Second}))
			fail(e.Subscribe(cq.Subscription{ID: "thr-" + typ, TypeName: typ, Kind: cq.KindThreshold, Window: time.Second,
				Predicate: cq.PredAbove, Threshold: sensor.SpecFor(typ).Max * 0.9}))
		}
		return func() {
			for _, b := range in.small {
				e.Observe(b)
			}
		}, nil
	})
	m["cq.observe_ns_per_reading"] = perReading(d, smallN)

	// tcpnet: an 8 KiB request echoed over one loopback connection.
	fail(roundTrips(m))
	return failed
}

// roundTrips measures the transport floor under every send span.
func roundTrips(m map[string]float64) error {
	const trips = 2000
	echo := transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		return msg.Payload, nil
	})
	srv, err := tcpnet.NewServer("echo", listenHost+":0", echo, tcpnet.ServerOptions{})
	if err != nil {
		return err
	}
	defer srv.Close()
	tr := tcpnet.New(tcpnet.Options{Conns: 1})
	defer tr.Close()
	tr.AddPeer("echo", srv.Addr())
	msg := transport.Message{From: clientName, To: "echo", Kind: transport.KindBatch, Class: "energy", Payload: make([]byte, 8<<10)}
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := tr.Send(ctx, msg); err != nil {
			return err
		}
	}
	rtt := make([]float64, 0, trips)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < trips; i++ {
		start := time.Now()
		if _, err := tr.Send(ctx, msg); err != nil {
			return err
		}
		rtt = append(rtt, us(time.Since(start)))
	}
	runtime.ReadMemStats(&m1)
	m["tcpnet.roundtrip_us_p50"] = median(rtt)
	m["tcpnet.roundtrip_allocs"] = float64(m1.Mallocs-m0.Mallocs) / trips
	return nil
}
