package f2c

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the ablations called out in DESIGN.md. Byte volumes
// are attached as custom metrics (B/day-sim etc.) via b.ReportMetric
// so `go test -bench` output doubles as the experiment record.

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/core"
	"f2c/internal/experiment"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/placement"
	"f2c/internal/sensor"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

var benchEpoch = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// BenchmarkTable1Analytic regenerates Table I (the per-type /
// per-category / grand-total arithmetic of both computing models).
func BenchmarkTable1Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Table1()
		if len(rows) != 27 {
			b.Fatal("bad table")
		}
	}
	cloudModel, f2cModel := experiment.Table1GrandTotals()
	b.ReportMetric(float64(cloudModel), "cloudB/day")
	b.ReportMetric(float64(f2cModel), "f2cB/day")
}

// table1DaySim runs a scaled simulated day over the Barcelona
// hierarchy and reports measured per-hop volumes — the simulation
// counterpart of Table I's estimation.
func table1DaySim(b *testing.B, dedup bool, codec aggregate.Codec, flush time.Duration) *core.DayResult {
	b.Helper()
	clock := sim.NewVirtualClock(benchEpoch)
	sys, err := core.NewSystem(core.Options{
		Clock:             clock,
		Dedup:             dedup,
		Quality:           true,
		Codec:             codec,
		Fog1FlushInterval: flush,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.RunDay(core.DayConfig{
		Start:    benchEpoch,
		Duration: 2 * time.Hour,
		Scale:    500,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1F2CSimulatedDay measures the F2C model: elimination
// and compression at fog layer 1 before the upward transfer.
func BenchmarkTable1F2CSimulatedDay(b *testing.B) {
	var res *core.DayResult
	for i := 0; i < b.N; i++ {
		res = table1DaySim(b, true, aggregate.CodecZip, 15*time.Minute)
	}
	b.ReportMetric(float64(res.EdgeBytes), "edgeB")
	b.ReportMetric(float64(res.Fog1ToFog2Bytes), "fog1to2B")
	b.ReportMetric(float64(res.Fog2ToCloudBytes), "fog2toCloudB")
	b.ReportMetric(float64(res.GeneratedReadings), "readings")
}

// BenchmarkTable1CloudModelSimulatedDay measures the centralized
// baseline shape: no elimination, no compression before the network.
func BenchmarkTable1CloudModelSimulatedDay(b *testing.B) {
	var res *core.DayResult
	for i := 0; i < b.N; i++ {
		res = table1DaySim(b, false, aggregate.CodecNone, 15*time.Minute)
	}
	b.ReportMetric(float64(res.EdgeBytes), "edgeB")
	b.ReportMetric(float64(res.Fog1ToFog2Bytes), "fog1to2B")
}

// BenchmarkFig6Topology rebuilds the Barcelona hierarchy.
func BenchmarkFig6Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := Barcelona()
		f1, f2, cl := topo.Counts()
		if f1 != 73 || f2 != 10 || cl != 1 {
			b.Fatal("bad topology")
		}
	}
}

// BenchmarkFig7 regenerates the five Fig. 7 bar groups with the
// paper's compression factor.
func BenchmarkFig7(b *testing.B) {
	var bars []experiment.Fig7Bar
	for i := 0; i < b.N; i++ {
		bars = experiment.Fig7(experiment.PaperCompressionRatio)
	}
	for _, bar := range bars {
		b.ReportMetric(bar.CompressedGB, bar.Category.String()+"GB")
	}
}

// BenchmarkCompressionStudy reproduces the §V.B Zip measurement on
// synthetic Sentilo payloads (per-codec variants).
func BenchmarkCompressionStudy(b *testing.B) {
	for _, codec := range []aggregate.Codec{aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		b.Run(codec.String(), func(b *testing.B) {
			var res experiment.CompressionResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiment.CompressionStudy(codec, 256*1024, 7)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.SavedShare, "saved%")
			b.SetBytes(int64(res.OriginalBytes))
		})
	}
}

// BenchmarkRealtimeAccess compares the §IV.D real-time read paths:
// local fog layer-1 read vs reading the same sensor from the cloud
// over the (unemulated) network stack.
func BenchmarkRealtimeAccess(b *testing.B) {
	clock := sim.NewVirtualClock(benchEpoch)
	sys, err := core.NewSystem(core.Options{Clock: clock, Dedup: true, Quality: true})
	if err != nil {
		b.Fatal(err)
	}
	f1 := sys.Fog1IDs()[0]
	batch := &model.Batch{
		NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: benchEpoch,
		Readings: []model.Reading{{
			SensorID: "s1", TypeName: "traffic", Category: model.CategoryUrban,
			Time: benchEpoch, Value: 42, Unit: "km/h",
		}},
	}
	if err := sys.IngestAt(f1, batch); err != nil {
		b.Fatal(err)
	}
	if err := sys.FlushAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("fog1-local", func(b *testing.B) {
		local, _ := sys.Fog1(f1)
		for i := 0; i < b.N; i++ {
			if _, found := local.Latest("s1"); !found {
				b.Fatal("read failed")
			}
		}
	})
	b.Run("cloud-remote", func(b *testing.B) {
		eng := sys.QueryEngine(f1)
		for i := 0; i < b.N; i++ {
			if _, found, err := eng.LatestFrom(ctx, sys.Cloud().ID(), "s1"); err != nil || !found {
				b.Fatal("read failed")
			}
		}
	})
}

// BenchmarkAccessRTTModel reports the link-model view of the same
// comparison: fog access vs the centralized two-transfer read.
func BenchmarkAccessRTTModel(b *testing.B) {
	p := placement.NewPlanner(placement.DefaultConfig())
	var adv experiment.Advantages
	for i := 0; i < b.N; i++ {
		adv = experiment.ComputeAdvantages(p, 1024, 4)
	}
	b.ReportMetric(float64(adv.FogReadRTT.Microseconds()), "fogRTTus")
	b.ReportMetric(float64(adv.CentralizedReadRTT.Microseconds()), "centralRTTus")
	b.ReportMetric(adv.ReadSpeedup, "speedup")
	b.ReportMetric(100*adv.TrafficReduction, "trafficSaved%")
}

// BenchmarkAggregationAblation measures the upstream byte effect of
// each aggregation technique in isolation and combined.
func BenchmarkAggregationAblation(b *testing.B) {
	cases := []struct {
		name  string
		dedup bool
		codec aggregate.Codec
	}{
		{"none", false, aggregate.CodecNone},
		{"dedup", true, aggregate.CodecNone},
		{"compress", false, aggregate.CodecFlate},
		{"both", true, aggregate.CodecFlate},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res *core.DayResult
			for i := 0; i < b.N; i++ {
				res = table1DaySim(b, tc.dedup, tc.codec, time.Hour)
			}
			b.ReportMetric(float64(res.Fog1ToFog2Bytes), "fog1to2B")
			b.ReportMetric(float64(res.EdgeBytes), "edgeB")
		})
	}
}

// BenchmarkFlushFrequency sweeps the upward-movement period (the
// paper's tunable) and reports its traffic cost.
func BenchmarkFlushFrequency(b *testing.B) {
	for _, flush := range []time.Duration{5 * time.Minute, 15 * time.Minute, time.Hour} {
		b.Run(flush.String(), func(b *testing.B) {
			var res *core.DayResult
			for i := 0; i < b.N; i++ {
				res = table1DaySim(b, true, aggregate.CodecZip, flush)
			}
			b.ReportMetric(float64(res.Fog1ToFog2Bytes), "fog1to2B")
		})
	}
}

// BenchmarkCollectionFrequency verifies the §IV.D claim that raising
// the layer-1 sampling frequency leaves upstream volume flat: the
// extra samples of slowly changing signals are eliminated locally.
func BenchmarkCollectionFrequency(b *testing.B) {
	run := func(b *testing.B, factor int) *core.DayResult {
		b.Helper()
		clock := sim.NewVirtualClock(benchEpoch)
		sys, err := core.NewSystem(core.Options{
			Clock: clock, Dedup: true, Quality: true, Codec: aggregate.CodecFlate,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Scale the catalog's publication frequency by emitting the
		// same daily bytes over proportionally more transactions.
		types := make([]model.SensorType, 0, 4)
		for _, name := range []string{"temperature", "parking_spot"} {
			st, err := model.TypeByName(name)
			if err != nil {
				b.Fatal(err)
			}
			st.DailyBytesPerSensor *= factor
			types = append(types, st)
		}
		res, err := sys.RunDay(core.DayConfig{
			Start: benchEpoch, Duration: 2 * time.Hour, Scale: 500, Seed: 3, Types: types,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for _, factor := range []int{1, 2, 4} {
		factor := factor
		b.Run(map[int]string{1: "x1", 2: "x2", 4: "x4"}[factor], func(b *testing.B) {
			var res *core.DayResult
			for i := 0; i < b.N; i++ {
				res = run(b, factor)
			}
			b.ReportMetric(float64(res.EdgeBytes), "edgeB")
			b.ReportMetric(float64(res.Fog1ToFog2Bytes), "fog1to2B")
		})
	}
}

// Micro-benchmarks of the substrates on the hot path.

func BenchmarkDeduperFilter(b *testing.B) {
	st, err := model.TypeByName("temperature")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := sensor.NewGenerator(sensor.Config{
		Type: st, NodeID: "n", Sensors: 500, Seed: 1, Redundancy: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := gen.Next(benchEpoch)
	d := aggregate.NewDeduper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Filter(batch)
	}
	b.SetBytes(int64(len(batch.Readings)) * 96)
}

func BenchmarkEncodeBatch(b *testing.B) {
	st, err := model.TypeByName("air_quality")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := sensor.NewGenerator(sensor.Config{
		Type: st, NodeID: "n", Sensors: 500, Seed: 1, Redundancy: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := gen.Next(benchEpoch)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(sensor.EncodeBatch(batch))
	}
	b.SetBytes(int64(n))
}

func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(benchEpoch)
		count := 0
		_ = e.ScheduleEvery(benchEpoch, time.Second, benchEpoch.Add(1000*time.Second), "tick",
			func(time.Time) { count++ })
		if err := e.Run(benchEpoch.Add(time.Hour)); err != nil {
			b.Fatal(err)
		}
		if count != 1000 {
			b.Fatal("bad event count")
		}
	}
}

func BenchmarkPlannerPlace(b *testing.B) {
	p := placement.NewPlanner(placement.DefaultConfig())
	spec := ServiceSpec{
		Name: "svc", TypeName: "traffic", Window: 5 * time.Minute,
		Compute: ComputeLight, MaxLatency: 10 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.Place(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-pipeline benchmarks: the sharded concurrent ingest path,
// and the bounded-concurrency hierarchy drain against its serial
// configuration (FlushWorkers/FlushConcurrency = 1), so the speedup of
// the concurrent drain is measured directly.

const benchSensorsPerBatch = 100

// benchIngestNode builds a leaf node flushing to a discard sink, with
// a tiny retention window so periodic flushes keep the temporal store
// (and benchmark memory) bounded.
func benchIngestNode(b *testing.B) *fognode.Node {
	b.Helper()
	net := transport.NewSimNetwork()
	net.Register("sink", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		return []byte("ok"), nil
	}))
	n, err := fognode.New(fognode.Config{
		Spec:      topology.NodeSpec{ID: "fog1/bench", Layer: topology.LayerFog1, Parent: "sink", Name: "bench"},
		Clock:     sim.NewVirtualClock(benchEpoch.Add(time.Second)),
		Transport: net,
		Retention: time.Millisecond,
		Codec:     aggregate.CodecNone,
		Dedup:     true,
		Quality:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// benchIngestGenerators builds one deterministic generator per
// worker, each emitting a different catalog type so concurrent
// ingests land on different shards (Redundancy 0: every reading is
// fresh and survives the elimination stage).
func benchIngestGenerators(b *testing.B, count int) []*sensor.Generator {
	b.Helper()
	catalog := model.Catalog()
	gens := make([]*sensor.Generator, count)
	for i := range gens {
		g, err := sensor.NewGenerator(sensor.Config{
			Type: catalog[i%len(catalog)], NodeID: "edge", Sensors: benchSensorsPerBatch,
			Seed: int64(i + 1), Redundancy: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		gens[i] = g
	}
	return gens
}

// BenchmarkParallelIngest measures acquisition-pipeline throughput on
// one fog node: the sharded pipeline driven from GOMAXPROCS
// goroutines, one sensor type each.
func BenchmarkParallelIngest(b *testing.B) {
	const flushEvery = 64
	b.Run("parallel", func(b *testing.B) {
		n := benchIngestNode(b)
		gens := benchIngestGenerators(b, runtime.GOMAXPROCS(0))
		var next atomic.Int32
		b.SetBytes(benchSensorsPerBatch * 96)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			gen := gens[int(next.Add(1)-1)%len(gens)]
			ctx := context.Background()
			i := 0
			for pb.Next() {
				if err := n.Ingest(gen.Next(benchEpoch)); err != nil {
					b.Error(err)
					return
				}
				if i++; i%flushEvery == 0 {
					_ = n.Flush(ctx)
				}
			}
		})
	})
}

// BenchmarkParallelFlushAll measures draining the full 83-node
// Barcelona hierarchy over links with (emulated) 1ms latency: serial
// flushes nodes and batches one at a time, paying every round trip
// back to back; parallel overlaps them with the bounded node- and
// batch-level worker pools — the win the paper's tunable upward
// movement needs at city scale.
func BenchmarkParallelFlushAll(b *testing.B) {
	typeNames := []string{"temperature", "traffic"}
	run := func(b *testing.B, concurrency, workers int) {
		clock := sim.NewVirtualClock(benchEpoch)
		sys, err := core.NewSystem(core.Options{
			Clock:            clock,
			Codec:            aggregate.CodecZip,
			Fog1Retention:    time.Millisecond,
			Fog2Retention:    time.Millisecond,
			Emulate:          true,
			FlushConcurrency: concurrency,
			FlushWorkers:     workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Uniform fast links keep the benchmark short; the serial vs
		// parallel ratio, not the absolute RTT, is the measurement.
		uplink := transport.LinkProfile{Latency: time.Millisecond}
		for _, id := range sys.Fog1IDs() {
			spec, _ := sys.Topology().Node(id)
			sys.Network().SetLink(id, spec.Parent, uplink)
		}
		for _, id := range sys.Fog2IDs() {
			sys.Network().SetLink(id, core.CloudID, uplink)
		}
		// One template batch per (node, type); re-ingested every
		// iteration (ingest leaves its input batch unmodified).
		var batches [][]*model.Batch
		for i, id := range sys.Fog1IDs() {
			var perNode []*model.Batch
			for _, name := range typeNames {
				st, err := model.TypeByName(name)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := sensor.NewGenerator(sensor.Config{
					Type: st, NodeID: id, Sensors: 50, Seed: int64(i + 1), Redundancy: 0,
				})
				if err != nil {
					b.Fatal(err)
				}
				perNode = append(perNode, gen.Next(benchEpoch))
			}
			batches = append(batches, perNode)
		}
		ctx := context.Background()
		readings := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clock.Advance(time.Hour) // expire the previous round from the fog stores
			for ni, id := range sys.Fog1IDs() {
				for _, batch := range batches[ni] {
					if err := sys.IngestAt(id, batch); err != nil {
						b.Fatal(err)
					}
					readings += len(batch.Readings)
				}
			}
			sys.Cloud().Expire(clock.Now()) // bound archive growth across iterations
			b.StartTimer()
			if err := sys.FlushAll(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(readings)/b.Elapsed().Seconds(), "readings/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0, 0) })
}
