package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"f2c/internal/core"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // measured time, split over the repetitions
	reps    int
	// layers adds the single-goroutine layer pass (traced runs).
	layers bool
	// scale shrinks the preload population (smoke tests); 1 is the
	// benchmark.
	scale float64
	// dir holds a durable city's journals and segments while it runs.
	dir string
}

// check is one correctness check's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// repResult is what one repetition measured.
type repResult struct {
	metrics   map[string]float64
	exact     map[string]int64
	attempted int
	failed    int
	checks    []check
}

// result is a whole run: the median repetition.
type result struct {
	workload  string
	metrics   map[string]float64
	samples   map[string][]float64 // every repetition's value, in order
	exact     map[string]int64     // counters that must repeat exactly for a seed
	attempted int
	failed    int
	correct   bool
	checks    []check
	wall      time.Duration
}

// runWorkload runs a workload's repetitions and folds them into one
// result: every metric is the median over the repetitions, operations
// add up, and the run is correct only if every check of every
// repetition passed. A traced run adds the layer pass.
func runWorkload(w workloadSpec, cfg runConfig, tr *tracer) (result, error) {
	began := time.Now()
	res := result{
		workload: w.name, correct: true,
		metrics: make(map[string]float64), samples: make(map[string][]float64), exact: make(map[string]int64),
	}
	for rep := 0; rep < cfg.reps; rep++ {
		r, err := runRepetition(w, cfg, rep, tr)
		if err != nil {
			return res, fmt.Errorf("%s repetition %d: %w", w.name, rep, err)
		}
		for name, v := range r.metrics {
			res.samples[name] = append(res.samples[name], v)
		}
		for name, v := range r.exact {
			res.exact[fmt.Sprintf("rep%d.%s", rep, name)] = v
		}
		res.attempted += r.attempted
		res.failed += r.failed
		for _, c := range r.checks {
			c.name = fmt.Sprintf("rep%d.%s", rep, c.name)
			res.checks = append(res.checks, c)
			res.correct = res.correct && c.ok
		}
	}
	for name, vs := range res.samples {
		res.metrics[name] = median(vs)
	}
	if cfg.layers {
		if err := layerPass(res.metrics, cfg); err != nil {
			return res, fmt.Errorf("layer pass: %w", err)
		}
	}
	res.wall = time.Since(began)
	return res, nil
}

// runRepetition sets a fresh city up, measures one window on it,
// drains it and verifies what arrived.
func runRepetition(w workloadSpec, cfg runConfig, rep int, tr *tracer) (repResult, error) {
	window := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
	seed := cfg.seed + int64(rep)*10000
	ingest := w.ingest
	if ingest.closed {
		ingest.batches = max(2, int(math.Round(burstBatchesPerSecond*window.Seconds())))
	}

	// Set-up: everything before the measured window.
	setupStart := time.Now()
	clock := newOffsetClock(setupStart.Add(-preloadRounds * time.Minute).Truncate(time.Millisecond))
	c, err := buildCity(w.profile, clock, filepath.Join(cfg.dir, fmt.Sprintf("%s-rep%d", w.name, rep)), tr)
	if err != nil {
		return repResult{}, err
	}
	defer func() {
		c.close()
		// Return the dead city's memory before the next set-up is
		// timed against it.
		debug.FreeOSMemory()
	}()
	sensors := max(2, int(math.Round(preloadSensors*cfg.scale)))
	expected, t0, err := preload(c, seed, sensors)
	if err != nil {
		return repResult{}, err
	}
	plan, err := newQueryPlan(c, t0, typeOrder[0], typeOrder[2], fmt.Sprintf("edge/pre/%s/0", typeOrder[0]))
	if err != nil {
		return repResult{}, err
	}
	senders, err := newSenders(c, ingest, seed)
	if err != nil {
		return repResult{}, err
	}
	warm := warmUp(c, plan, senders, ingest, window)
	expected += warm.kept
	pushdown := math.NaN()
	if tr != nil {
		pushdown = pushdownWireRatio(plan, tr)
	}
	// Collect the set-up's garbage and hand its pages back, so the
	// resident set's high-water mark, restarted here, is the window's
	// own and not the preload's.
	debug.FreeOSMemory()
	setup := time.Since(setupStart)
	resetPeakRSS()

	// The measured window.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	before := c.snapshot()
	cpu0 := cpuTime()
	start := time.Now().Add(20 * time.Millisecond)
	clockStart := clock.Now().Add(time.Until(start))
	span0 := int64(0)
	if tr != nil {
		span0 = tr.now()
	}
	driver := startFlushDriver(c, start, fog1Period, fog2Period)
	var qs queryStats
	var ing senderStats
	if w.readsAfter {
		ing = runIngest(senders, ingest, start, window)
	} else {
		beside := make(chan queryStats, 1)
		go func() { beside <- plan.runQueries(start, window) }()
		ing = runIngest(senders, ingest, start, window)
		qs = <-beside
	}
	driver.halt()
	drained := c.drain()
	stop := time.Now()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&mem1)
	after := c.snapshot()
	// The CPU time of the phase the reads ran in. Beside the writes
	// that is the window: cpu_us_per_reading and query.cpu_us_per_query
	// then both price the whole mix, per reading and per query; only the
	// ingest workloads, whose reads follow, price each side alone.
	readCPU := cpu
	if w.readsAfter {
		// Collect the write phase's garbage first: whether a cycle
		// lands inside a read phase this short would otherwise decide
		// its medians.
		runtime.GC()
		cpu1 := cpuTime()
		qs = plan.runQueries(time.Now(), time.Duration(afterShare*float64(window)))
		readCPU = cpuTime() - cpu1
	}
	expected += ing.kept

	m := make(map[string]float64)
	m["peak_rss_mb"] = peakRSSMB() // before verification reads the archive back
	readings := float64(ing.readings)
	elapsed := stop.Sub(ing.first).Seconds()
	m["setup_s"] = setup.Seconds()
	m["ingest_readings_per_s"] = readings / elapsed
	m["ingest_ack_p50_ms"] = median(ing.ackMS)
	fresh := freshness(c, clockStart)
	m["freshness_p50_ms"] = quantileSorted(fresh, 0.50)
	m["freshness_p99_ms"] = quantileSorted(fresh, 0.99)
	m["cpu_us_per_reading"] = us(cpu) / readings
	m["wan_bytes_per_reading"] = float64(after.fog2Bytes-before.fog2Bytes) / readings
	completed := 0
	for _, class := range queryClasses {
		completed += len(qs.latencyMS[class])
		m["query_"+class+"_p50_ms"] = median(qs.latencyMS[class])
	}
	m["query_per_s"] = float64(completed) / qs.elapsed.Seconds()

	// Verification: reported, never aborting.
	r := repResult{metrics: m, attempted: ing.sent + qs.issued, exact: make(map[string]int64)}
	ledger := verifyLedger(c, expected, drained)
	r.exact["kept_count"] = expected
	for class, n := range plan.want {
		r.exact["results."+class] = int64(n)
	}
	r.checks = append(ledger.checks, check{
		name: "queries", ok: qs.wrong == 0 && qs.failed == 0,
		detail: fmt.Sprintf("%d issued, %d failed, %d with a result count off the reference %v", qs.issued, qs.failed, qs.wrong, plan.want),
	}, check{
		name: "sends", ok: ing.failed == 0 && ing.rejected == 0,
		detail: fmt.Sprintf("%d batches sent, %d transport errors, %d refused by admission", ing.sent, ing.failed, ing.rejected),
	})
	r.failed = ing.failed + ing.rejected + qs.failed + qs.wrong +
		int((ledger.mismatched+int64(ingest.batch)-1)/int64(ingest.batch))

	if tr != nil {
		// Lateness against the open-loop timetable; a closed-loop
		// burst has none to be late against.
		late := ing.lateMS
		if ingest.closed {
			late = []float64{0}
		}
		m["loadgen.late_p50_ms"] = quantile(late, 0.50)
		m["loadgen.late_p99_ms"] = quantile(late, 0.99)
		m["loadgen.encode_ns_per_reading"] = float64(ing.encode) / readings
		m["loadgen.ack_p99_ms"] = quantile(ing.ackMS, 0.99)
		m["tcpnet.edge_fog1.bytes_per_reading"] = float64(ing.payloadBytes) / readings
		m["tcpnet.fog1_fog2.bytes_per_reading"] = float64(after.fog1Bytes-before.fog1Bytes) / readings
		m["tcpnet.fog2_cloud.bytes_per_reading"] = m["wan_bytes_per_reading"]
		m["fognode.flush_overruns"] = float64(driver.overruns.Load())
		m["fognode.dedup_kept_share"] = float64(after.dedupKept-before.dedupKept) / float64(after.dedupIn-before.dedupIn)
		m["fognode.duplicate_batches"] = float64(after.duplicates - before.duplicates)
		m["fognode.deferred_flushes"] = float64(after.deferred - before.deferred)
		m["sched.rejected"] = float64(after.schedRejected - before.schedRejected)
		m["runtime.alloc_bytes_per_reading"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / readings
		m["runtime.mallocs_per_reading"] = float64(mem1.Mallocs-mem0.Mallocs) / readings
		m["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
		m["query.cpu_us_per_query"] = us(readCPU) / float64(max(1, completed))
		m["query.pushdown_wire_ratio"] = pushdown
		m["trace.cpu_us_per_reading"] = m["cpu_us_per_reading"]
		spanMetrics(m, tr.window(span0, tr.now()), readings)
	}
	return r, nil
}

// preload ingests 30 h of history for the first eight types (two per
// fog1 node) through Node.Ingest under the frozen clock, one round
// per simulated minute with a flush wave every hour, then pins the
// clock to wall time. It returns the reference kept count and T0.
func preload(c *city, seed int64, sensors int) (kept int64, t0 time.Time, err error) {
	gens := make([]*typeGen, 8)
	for pos := range gens {
		if gens[pos], err = newTypeGen(pos, "edge/pre", sensors, seed+1000+int64(pos), ""); err != nil {
			return 0, time.Time{}, err
		}
	}
	for round := 0; round < preloadRounds; round++ {
		now := c.clock.Now()
		for pos, tg := range gens {
			b, k := tg.next(now)
			if err := c.fog1[ownerOf(pos)].node.Ingest(b); err != nil {
				return 0, time.Time{}, fmt.Errorf("preload: %w", err)
			}
			kept += int64(k)
		}
		c.clock.Step(time.Minute)
		if (round+1)%preloadWaveEvery == 0 {
			if err := c.flushWave(); err != nil {
				return 0, time.Time{}, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return kept, c.clock.Pin(), nil
}

// warmUp runs the workload's own load shape briefly — about a second,
// or 50 batches of a burst — plus two cycles of the query classes, so
// connections are dialled and pools and codec state are filled, then
// drains the city so the window starts with nothing in flight.
func warmUp(c *city, plan *queryPlan, senders []*sender, spec ingestSpec, window time.Duration) senderStats {
	warm := spec
	warm.batches = min(50, spec.batches)
	st := runIngest(senders, warm, time.Now(), min(time.Second, window))
	for i := 0; i < 2*len(queryClasses); i++ {
		_, _ = plan.timed(queryClasses[i%len(queryClasses)])
	}
	c.drain()
	return st
}

// pushdownWireRatio compares the reply bytes of a raw 12 h range
// fetched from every district with those of the pushed-down
// aggregate over the same window.
func pushdownWireRatio(p *queryPlan, tr *tracer) float64 {
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	from, to := p.window("aggregate")
	replyBytes := func(fn func()) float64 {
		mark := tr.now()
		fn()
		var n int64
		for _, s := range tr.window(mark, tr.now()) {
			if s.Name == spanQuerySend {
				n += s.Bytes
			}
		}
		return float64(n)
	}
	raw := replyBytes(func() {
		for _, m := range p.c.fog2 {
			_, _ = p.fog1.RangeFrom(ctx, m.id, p.own, from, to)
		}
	})
	agg := replyBytes(func() { _, _, _ = p.fog1.Aggregate(ctx, p.own, from, to) })
	return raw / agg
}

// counters is a snapshot of the city's own counters.
type counters struct {
	fog1Bytes, fog2Bytes       int64
	dedupIn, dedupKept         int64
	duplicates, deferred       int64
	schedRejected, alertsFired int64
}

func (c *city) snapshot() counters {
	var s counters
	for _, m := range c.fog1 {
		s.fog1Bytes += m.counter("flush.bytes")
		in, kept := m.node.DedupStats()
		s.dedupIn += in
		s.dedupKept += kept
		s.alertsFired += m.node.AlertsFired()
	}
	for _, m := range c.fog2 {
		s.fog2Bytes += m.counter("flush.bytes")
	}
	for _, m := range c.fogs() {
		s.duplicates += m.node.DuplicateBatches()
		s.deferred += m.node.DeferredFlushes()
		for _, class := range []string{"ingest", "query", "relay"} {
			s.schedRejected += m.counter("sched." + class + ".rejected")
		}
	}
	s.duplicates += c.cloud.DuplicateBatches()
	for _, class := range []string{"ingest", "query", "relay"} {
		s.schedRejected += c.cloudReg.Counter(core.CloudID + ".sched." + class + ".rejected").Value()
	}
	return s
}

// freshness returns, sorted, StoredAt - Reading.Time in milliseconds
// for every archived reading created at or after from — read from the
// archive after the run, so nothing probes the city while it runs.
func freshness(c *city, from time.Time) []float64 {
	var out []float64
	for _, rec := range c.cloud.Archive().Records() {
		for i := range rec.Batch.Readings {
			if t := rec.Batch.Readings[i].Time; !t.Before(from) {
				out = append(out, ms(rec.StoredAt.Sub(t)))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// ledgerResult is the conservation verdict of one repetition.
type ledgerResult struct {
	checks     []check
	mismatched int64 // readings lost, duplicated or unexpected
}

// verifyLedger runs the conservation checks: what fog1 kept is what
// the cloud archived, exactly once; what fog1 kept is what the
// reference elimination keeps for this seed; every alert fired is
// archived and every subscription still stands.
func verifyLedger(c *city, expected int64, drained bool) ledgerResult {
	type pair struct {
		sensor string
		at     int64
	}
	var res ledgerResult
	_, kept, rejected := c.keptAtFog1()
	archived := c.cloud.Archive().Stats().Readings
	seen := make(map[pair]struct{}, archived)
	var twice int64
	for _, rec := range c.cloud.Archive().Records() {
		for i := range rec.Batch.Readings {
			p := pair{rec.Batch.Readings[i].SensorID, rec.Batch.Readings[i].Time.UnixNano()}
			if _, dup := seen[p]; dup {
				twice++
			}
			seen[p] = struct{}{}
		}
	}
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	res.mismatched = abs(kept-archived) + twice + abs(kept-expected) + rejected
	res.checks = append(res.checks, check{
		name: "ledger", ok: drained && kept == archived && twice == 0 && rejected == 0,
		detail: fmt.Sprintf("fog1 kept %d, cloud archived %d, %d (sensor, time) pairs archived twice, %d rejected by quality, drained=%v",
			kept, archived, twice, rejected, drained),
	}, check{
		name: "kept_count", ok: kept == expected,
		detail: fmt.Sprintf("fog1 kept %d, reference elimination keeps %d", kept, expected),
	})
	// No subscription of this benchmark can fire (see profile.subs), so
	// what the check holds is that every one is still standing after
	// the run and that nothing fired or was archived on its own.
	fired, stored, standing := c.snapshot().alertsFired, int64(len(c.cloud.AlertInstances())), 0
	for _, m := range c.fog1 {
		standing += len(m.node.Subscriptions())
	}
	res.checks = append(res.checks, check{
		name: "alerts", ok: fired == stored && standing == c.subs,
		detail: fmt.Sprintf("fog1 fired %d, cloud archived %d, %d of %d subscriptions standing", fired, stored, standing, c.subs),
	})
	return res
}

// spanMetrics derives the span-sourced per-layer metrics of one
// window.
func spanMetrics(m map[string]float64, spans []span, readings float64) {
	tree := buildTree(spans)
	byName := make(map[string][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	durs := func(name string, unit func(time.Duration) float64) []float64 {
		out := make([]float64, 0, len(byName[name]))
		for _, s := range byName[name] {
			out = append(out, unit(s.dur()))
		}
		return out
	}
	sum := func(name string, of func(span) time.Duration) float64 {
		var total time.Duration
		for _, s := range byName[name] {
			total += of(s)
		}
		return us(total)
	}
	// wait is a send's duration less the handler span it caused:
	// framing, socket and dispatch queue, both directions.
	wait := func(send, handle string) []float64 {
		var out []float64
		for _, s := range byName[send] {
			if h, ok := tree.firstChild(s, handle); ok {
				out = append(out, ms(s.dur()-h.dur()))
			}
		}
		return out
	}
	// Flushes that moved nothing are empty slots, not flush work.
	var fog1Flushes []float64
	for _, s := range byName[layerFog1+".flush"] {
		if len(tree.children[s.ID]) > 0 {
			fog1Flushes = append(fog1Flushes, ms(s.dur()))
		}
	}

	m["fognode.fog1.handle_ingest_us_per_reading"] = sum(layerFog1+".handle_ingest", span.dur) / readings
	m["fognode.fog1.handle_ingest_p99_ms"] = quantile(durs(layerFog1+".handle_ingest", ms), 0.99)
	m["fognode.fog1.flush_ms_p50"] = median(fog1Flushes)
	m["fognode.fog1.flush_self_us_per_reading"] = sum(layerFog1+".flush", tree.self) / readings
	m["tcpnet.fog1_fog2.send_ms_p50"] = median(durs(fog1Hop, ms))
	m["tcpnet.fog1_fog2.wire_wait_ms_p50"] = median(wait(fog1Hop, layerFog2+".handle_ingest"))
	m["fognode.fog2.handle_ingest_us_per_reading"] = sum(layerFog2+".handle_ingest", span.dur) / readings
	m["fognode.fog2.flush_self_us_per_reading"] = sum(layerFog2+".flush", tree.self) / readings
	m["tcpnet.fog2_cloud.send_ms_p50"] = median(durs(fog2Hop, ms))
	m["tcpnet.fog2_cloud.wire_wait_ms_p50"] = median(wait(fog2Hop, layerCloud+".handle_ingest"))
	m["cloud.handle_ingest_us_per_reading"] = sum(layerCloud+".handle_ingest", span.dur) / readings

	var rangeQueries, rangePages, rangeReadings, rangeBytes float64
	for _, class := range queryClasses {
		name := "query." + class
		m[name+".p99_ms"] = quantile(durs(name, ms), 0.99)
		selfs := make([]float64, 0, len(byName[name]))
		for _, s := range byName[name] {
			selfs = append(selfs, us(tree.self(s)))
			if strings.HasPrefix(class, "range_") {
				rangeQueries++
				rangeReadings += float64(s.Bytes) // a query span's bytes field is its result count
				for _, c := range tree.children[s.ID] {
					rangePages++
					rangeBytes += float64(c.Bytes)
				}
			}
		}
		m[name+".engine_self_us_p50"] = median(selfs)
	}
	m["fognode.fog1.handle_query_us_p50"] = median(durs(layerFog1+".handle_query", us))
	m["fognode.fog2.handle_query_us_p50"] = median(durs(layerFog2+".handle_query", us))
	m["cloud.handle_query_us_p50"] = median(durs(layerCloud+".handle_query", us))
	m["tcpnet.query.send_ms_p50"] = median(durs(spanQuerySend, ms))
	m["query.pages_per_range"] = rangePages / rangeQueries
	m["query.reply_bytes_per_reading"] = rangeBytes / rangeReadings

	orphans, unbalanced := tree.treeHealth(spans)
	m["trace.spans"] = float64(len(spans))
	m["trace.orphan_spans"] = float64(orphans)
	m["trace.unbalanced_trees"] = float64(unbalanced)
}
