package main

import "strings"

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root declares the same names, units, directions and
// bounds; bench_test.go holds the two together.
type metricSpec struct {
	name, unit string
	// better is the direction of improvement, "lower" or "higher".
	better string
	// bound (end-to-end metrics only) is the share of the parent
	// commit's median by which the metric may worsen before a change
	// counts as a regression.
	bound float64
	// source (per-layer metrics only) says where the number comes from.
	source source
}

const (
	lower  = "lower"
	higher = "higher"
)

// source is the origin of a per-layer metric: a counter read around
// the measured window, the spans of the traced city run, or the
// single-goroutine layer pass.
type source byte

const (
	sourceCounter source = iota
	sourceSpans
	sourceLayerPass
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 15

// endToEnd lists what a user of the city sees. Every workload reports
// every one of them.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "ingest_readings_per_s", unit: "readings/s", better: higher, bound: 0.10},
	{name: "ingest_ack_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "freshness_p50_ms", unit: "ms", better: lower, bound: 0.10},
	{name: "freshness_p99_ms", unit: "ms", better: lower, bound: 0.10},
	{name: "cpu_us_per_reading", unit: "us/reading", better: lower, bound: 0.15},
	{name: "wan_bytes_per_reading", unit: "B/reading", better: lower, bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.25},
	{name: "query_per_s", unit: "queries/s", better: higher, bound: 0.25},
	{name: "query_latest_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "query_range_local_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "query_range_sibling_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "query_range_fog2_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "query_range_cloud_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "query_aggregate_p50_ms", unit: "ms", better: lower, bound: 0.25},
}

// boundOn is the bound a metric is held to on one workload.
// BENCHMARK.json has room for one number per metric, sized for the
// workload on which the metric is noisiest; freshness is noisy only on
// the burst, where it is processing-bound, and sits at the flush
// cadence everywhere else — the "must not move" rows, held to 5 %.
func boundOn(s metricSpec, workload string) float64 {
	if strings.HasPrefix(s.name, "freshness_") && workload != "ingest_burst" {
		return 0.05
	}
	return s.bound
}

// perLayer lists the single-layer metrics of a traced run.
var perLayer = []metricSpec{
	// C: the load generator itself (validity of the run).
	{name: "loadgen.late_p50_ms", unit: "ms", better: lower, source: sourceCounter},
	{name: "loadgen.late_p99_ms", unit: "ms", better: lower, source: sourceCounter},
	{name: "loadgen.encode_ns_per_reading", unit: "ns/reading", better: lower, source: sourceCounter},
	{name: "loadgen.ack_p99_ms", unit: "ms", better: lower, source: sourceCounter},
	// C: accounted wire bytes per hop.
	{name: "tcpnet.edge_fog1.bytes_per_reading", unit: "B/reading", better: lower, source: sourceCounter},
	{name: "tcpnet.fog1_fog2.bytes_per_reading", unit: "B/reading", better: lower, source: sourceCounter},
	{name: "tcpnet.fog2_cloud.bytes_per_reading", unit: "B/reading", better: lower, source: sourceCounter},
	// T: the write path, hop by hop.
	{name: "fognode.fog1.handle_ingest_us_per_reading", unit: "us/reading", better: lower, source: sourceSpans},
	{name: "fognode.fog1.handle_ingest_p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "fognode.fog1.flush_ms_p50", unit: "ms", better: lower, source: sourceSpans},
	{name: "fognode.fog1.flush_self_us_per_reading", unit: "us/reading", better: lower, source: sourceSpans},
	{name: "fognode.flush_overruns", unit: "count", better: lower, source: sourceCounter},
	{name: "tcpnet.fog1_fog2.send_ms_p50", unit: "ms", better: lower, source: sourceSpans},
	{name: "tcpnet.fog1_fog2.wire_wait_ms_p50", unit: "ms", better: lower, source: sourceSpans},
	{name: "fognode.fog2.handle_ingest_us_per_reading", unit: "us/reading", better: lower, source: sourceSpans},
	{name: "fognode.fog2.flush_self_us_per_reading", unit: "us/reading", better: lower, source: sourceSpans},
	{name: "tcpnet.fog2_cloud.send_ms_p50", unit: "ms", better: lower, source: sourceSpans},
	{name: "tcpnet.fog2_cloud.wire_wait_ms_p50", unit: "ms", better: lower, source: sourceSpans},
	{name: "cloud.handle_ingest_us_per_reading", unit: "us/reading", better: lower, source: sourceSpans},
	// C: useful work over attempts, and failed or retried work.
	{name: "fognode.dedup_kept_share", unit: "ratio", better: lower, source: sourceCounter},
	{name: "fognode.duplicate_batches", unit: "count", better: lower, source: sourceCounter},
	{name: "fognode.deferred_flushes", unit: "count", better: lower, source: sourceCounter},
	{name: "sched.rejected", unit: "count", better: lower, source: sourceCounter},
	{name: "runtime.alloc_bytes_per_reading", unit: "B/reading", better: lower, source: sourceCounter},
	{name: "runtime.mallocs_per_reading", unit: "1/reading", better: lower, source: sourceCounter},
	{name: "runtime.gc_cycles", unit: "count", better: lower, source: sourceCounter},
	// T: the tracer on itself. trace.overhead_pct needs the untraced
	// run as well, so the full run prints it (selfcheck.go), from this:
	{name: "trace.cpu_us_per_reading", unit: "us/reading", better: lower, source: sourceCounter},
	{name: "trace.spans", unit: "count", better: lower, source: sourceSpans},
	{name: "trace.orphan_spans", unit: "count", better: lower, source: sourceSpans},
	{name: "trace.unbalanced_trees", unit: "count", better: lower, source: sourceSpans},
	// T: the read path, class by class and tier by tier.
	{name: "query.latest.p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.latest.engine_self_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "query.range_local.p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.range_local.engine_self_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "query.range_sibling.p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.range_sibling.engine_self_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "query.range_fog2.p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.range_fog2.engine_self_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "query.range_cloud.p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.range_cloud.engine_self_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "query.aggregate.p99_ms", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.aggregate.engine_self_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "fognode.fog1.handle_query_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "fognode.fog2.handle_query_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "cloud.handle_query_us_p50", unit: "us", better: lower, source: sourceSpans},
	{name: "tcpnet.query.send_ms_p50", unit: "ms", better: lower, source: sourceSpans},
	{name: "query.pages_per_range", unit: "1/query", better: lower, source: sourceSpans},
	{name: "query.reply_bytes_per_reading", unit: "B/reading", better: lower, source: sourceSpans},
	{name: "query.cpu_us_per_query", unit: "us/query", better: lower, source: sourceCounter},
	{name: "query.pushdown_wire_ratio", unit: "ratio", better: higher, source: sourceCounter},
	// L: each layer's public functions on their own.
	{name: "sensor.append_batch_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "sensor.decode_batch_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "protocol.seal_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "protocol.seal_allocs_per_batch", unit: "allocs/batch", better: lower, source: sourceLayerPass},
	{name: "protocol.open_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "protocol.open_allocs_per_batch", unit: "allocs/batch", better: lower, source: sourceLayerPass},
	{name: "aggregate.compress_ratio", unit: "ratio", better: higher, source: sourceLayerPass},
	{name: "aggregate.dedup_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "quality.assess_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "describe.describe_ns_per_batch", unit: "ns/batch", better: lower, source: sourceLayerPass},
	{name: "fognode.ingest_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "fognode.ingest_durable_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "fognode.ingest_durable_par2_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "wal.append_ns_per_record", unit: "ns/record", better: lower, source: sourceLayerPass},
	{name: "wal.bytes_per_reading", unit: "B/reading", better: lower, source: sourceLayerPass},
	{name: "store.append_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "store.range_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "store.archive_put_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "segment.append_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "segment.range_cold_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "segment.flush_ms_per_mib", unit: "ms/MiB", better: lower, source: sourceLayerPass},
	{name: "segment.disk_bytes_per_reading", unit: "B/reading", better: lower, source: sourceLayerPass},
	{name: "protocol.replay_ns_per_op", unit: "ns/op", better: lower, source: sourceLayerPass},
	{name: "sched.admit_ns_per_op", unit: "ns/op", better: lower, source: sourceLayerPass},
	{name: "cq.observe_ns_per_reading", unit: "ns/reading", better: lower, source: sourceLayerPass},
	{name: "tcpnet.roundtrip_us_p50", unit: "us", better: lower, source: sourceLayerPass},
	{name: "tcpnet.roundtrip_allocs", unit: "allocs/op", better: lower, source: sourceLayerPass},
}

// Sizing, fixed here so every later run measures the same thing.
const (
	// repetitions is how many fresh cities one run builds; each is set
	// up, measured for seconds/repetitions and verified, and the run
	// reports the median repetition. Fresh cities bound memory (RAM
	// stores keep about five copies of every kept reading) and give
	// setup_s three samples.
	repetitions = 3
	// preloadRounds is 30 h of history at one round per simulated
	// minute; a flush wave runs every preloadWaveEvery rounds.
	preloadRounds    = 30 * 60
	preloadWaveEvery = 60
	// preloadSensors is the sensors per preloaded type at scale 1.
	preloadSensors = 25
	// burstBatchesPerSecond sizes the closed-loop burst as fixed work:
	// 800 batches of 1000 readings per repetition at the default 15 s
	// (more would not fit the memory budget: about 700 MB resident).
	// The 2-core sandbox this was sized on ingests them in about half
	// the window; the read phase after it takes the other half.
	burstBatchesPerSecond = 160
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name, why string
	profile   profile
	ingest    ingestSpec
	// readsAfter runs the query client once the writes have drained,
	// for afterShare of the window, instead of beside them. The ingest
	// workloads do: their window then holds the write path alone, so
	// cpu_us_per_reading prices it and nothing else, and their reads
	// measure the stores the writes left behind. The burst has a second
	// reason: it saturates both cores without admission control, and a
	// query beside it waits in the scheduler's queue for 20-90 ms, a
	// different number every run.
	readsAfter bool
}

func positions(from, to int) []int {
	out := make([]int, 0, to-from)
	for p := from; p < to; p++ {
		out = append(out, p)
	}
	return out
}

// workloads are the four workloads. Every one runs the write side,
// the read side (one closed-loop query client) and the flush timetable
// on a city preloaded with 30 h of history; they differ in how hard
// the write side pushes, in what is under the stores, and in whether
// the reads follow the writes (ingest workloads) or run beside them
// (query workloads).
var workloads = []workloadSpec{
	{
		name:       "ingest_burst",
		why:        "closed-loop burst of 1000-reading batches on RAM stores, reads after it: decode, stages, append, seal+zip and archive do the work; wal, segment, sched, cq do none",
		ingest:     ingestSpec{senders: 2, types: positions(0, 8), batch: 1000, closed: true},
		readsAfter: true,
	},
	{
		name:       "ingest_paced_durable",
		why:        "open-loop 300 x 100-reading batches/s on journal + segment store + admission + cq, reads after it: per-batch costs lead, freshness is cadence-bound",
		profile:    profile{durable: true, subs: []string{typeOrder[0], typeOrder[5], typeOrder[10], typeOrder[15]}},
		ingest:     ingestSpec{senders: 2, types: positions(0, 16), batch: 100, rate: 300},
		readsAfter: true,
	},
	{
		name:   "query_hot",
		why:    "closed-loop reads of every tier on RAM stores beside 100 batches/s of writes, so a read gain that costs ingest shows in the ingest columns",
		ingest: ingestSpec{senders: 1, types: positions(8, 9), batch: 100, rate: 100},
	},
	{
		name:    "query_cold",
		why:     "the same reads beside the same writes on the production profile: history sits in mmap'd segments, so segment does the work store does in query_hot",
		profile: profile{durable: true},
		ingest:  ingestSpec{senders: 1, types: positions(8, 9), batch: 100, rate: 100},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
