// Command f2cload drives a running F2C deployment with synthetic
// Sentilo traffic — the sensor layer and the load plane of a
// multi-process city.
//
// Every mode speaks tcpnet. Single-node mode drives one node, or any
// node an f2cd -all-in-one port hosts, by its id:
//
//	f2cload -node localhost:9002 -node-id fog1/d01-s01 \
//	        -type temperature -sensors 50 -rounds 10 -interval 500ms
//
// Cluster mode drives every fog layer-1 node of a cluster document
// (citysim -live writes one) with concurrent ingest workers, and
// optionally a concurrent query plane measuring read latency while
// ingest runs — the class-isolation experiment:
//
//	f2cload -cluster cluster.json -workers 32 -sensors 1000 -rounds 50 \
//	        -query-workers 4 -query-rounds 200 -json results.json
//
// Each worker emits one batch per round (one reading per simulated
// sensor), so -workers 100 -sensors 1000 models a 100,000-sensor
// city section plane. The report records sustained ingest throughput
// and per-request p50/p99 round-trip latency for both planes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/config"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "f2cload:", err)
		os.Exit(1)
	}
}

// planeReport is the measured outcome of one traffic plane.
type planeReport struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Rejected counts sends an overloaded node's admission scheduler
	// turned away — expected shedding under a saturating burst, kept
	// apart from transport errors.
	Rejected   int64   `json:"rejected,omitempty"`
	Readings   int64   `json:"readings,omitempty"`
	WireBytes  int64   `json:"wireBytes,omitempty"`
	ElapsedSec float64 `json:"elapsedSec"`
	PerSec     float64 `json:"perSec"`
	P50Ms      float64 `json:"p50Ms"`
	P99Ms      float64 `json:"p99Ms"`
	MaxMs      float64 `json:"maxMs"`
}

// report is the JSON document -json writes.
type report struct {
	Targets      []string     `json:"targets"`
	Workers      int          `json:"workers"`
	SensorsTotal int          `json:"sensorsTotal"`
	Ingest       planeReport  `json:"ingest"`
	Query        *planeReport `json:"query,omitempty"`
	// Overload sums the deployment's overload-control counters
	// (admission scheduler, degrade-to-summary, shed) across the
	// scraped nodes, keyed by counter name with node prefixes
	// stripped (-scrape).
	Overload map[string]int64 `json:"overload,omitempty"`
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("f2cload", flag.ContinueOnError)
	nodeAddr := fs.String("node", "", "target node's tcpnet address, host:port (single-node mode)")
	nodeID := fs.String("node-id", "fog1/d01-s01", "target node id (an all-in-one port routes by it)")
	clusterPath := fs.String("cluster", "", "cluster JSON (targets every fog1 node)")
	typeName := fs.String("type", "temperature", "catalog sensor type to emit")
	sensors := fs.Int("sensors", 50, "simulated sensors per worker (one reading each per batch)")
	rounds := fs.Int("rounds", 10, "batches each worker sends")
	workers := fs.Int("workers", 1, "concurrent ingest workers")
	interval := fs.Duration("interval", 500*time.Millisecond, "delay between a worker's batches (0 = saturate)")
	queryWorkers := fs.Int("query-workers", 0, "concurrent query workers running while ingest drives")
	queryRounds := fs.Int("query-rounds", 100, "latest-value queries per query worker")
	seed := fs.Int64("seed", 1, "workload seed")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	scrape := fs.Bool("scrape", false, "after the load, scrape every cluster node's metrics and sum the overload-control counters into the report")
	jsonOut := fs.String("json", "", "write the measured report as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := model.TypeByName(*typeName)
	if err != nil {
		return err
	}

	// Resolve the peers and the ingest targets among them.
	var targets, scrapeIDs []string
	nodes := map[string]string{*nodeID: *nodeAddr}
	switch {
	case *clusterPath != "":
		cluster, err := config.LoadCluster(*clusterPath)
		if err != nil {
			return err
		}
		nodes = cluster.Nodes
		scrapeIDs = cluster.NodeIDs()
		for _, id := range scrapeIDs {
			if strings.HasPrefix(id, "fog1/") {
				targets = append(targets, id)
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("cluster has no fog1 nodes to drive")
		}
	case *nodeAddr != "":
		targets = []string{*nodeID}
		scrapeIDs = targets
	default:
		return fmt.Errorf("-node or -cluster is required")
	}
	tr := tcpnet.New(tcpnet.Options{DialTimeout: *timeout})
	defer tr.Close()
	for id, addr := range nodes {
		tr.AddPeer(id, addr)
	}

	// Ingest plane: each worker owns a generator (distinct node id, so
	// sensor ids never collide across workers) and drives one target
	// round-robin by worker index.
	ingestHist := metrics.NewHistogram(metrics.DefaultLatencyBounds())
	var (
		mu                  sync.Mutex
		sent, bytes, ingErr int64
		ingRej, qRej        int64
		firstErr            error
	)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		gen, err := sensor.NewGenerator(sensor.Config{
			Type: st, NodeID: fmt.Sprintf("edge/f2cload/w%03d", w),
			Sensors: *sensors, Seed: *seed + int64(w), Redundancy: -1,
		})
		if err != nil {
			return err
		}
		target := targets[w%len(targets)]
		wg.Add(1)
		go func(w int, gen *sensor.Generator, target string) {
			defer wg.Done()
			for i := 0; i < *rounds; i++ {
				if i > 0 && *interval > 0 {
					time.Sleep(*interval)
				}
				batch := gen.Next(time.Now())
				payload, err := protocol.EncodeBatchPayload(batch, aggregate.CodecNone)
				if err != nil {
					recordErr(&mu, &ingErr, &firstErr, fmt.Errorf("worker %d round %d: %w", w, i, err))
					return
				}
				msg := transport.Message{
					From: batch.NodeID, To: target, Kind: transport.KindBatch,
					Class: st.Category.String(), Payload: payload,
				}
				t0 := time.Now()
				if _, err := tr.Send(ctx, msg); transport.IsOverload(err) {
					// The admission scheduler turned the batch away:
					// expected shedding under a saturating burst, not a
					// failure of the harness.
					mu.Lock()
					ingRej++
					mu.Unlock()
					continue
				} else if err != nil {
					recordErr(&mu, &ingErr, &firstErr, fmt.Errorf("worker %d round %d: %w", w, i, err))
					continue
				}
				ingestHist.Observe(time.Since(t0))
				mu.Lock()
				sent += int64(len(batch.Readings))
				bytes += msg.WireSize()
				mu.Unlock()
			}
		}(w, gen, target)
	}

	// Query plane: read the latest value of known sensors from the
	// ingest targets while the ingest plane saturates them. The two
	// planes ride different traffic classes on the tcpnet transport,
	// so query latency under ingest load measures class isolation.
	queryHist := metrics.NewHistogram(metrics.DefaultLatencyBounds())
	var qErr int64
	queryStart := time.Now()
	for q := 0; q < *queryWorkers; q++ {
		target := targets[q%len(targets)]
		// Sensor ids follow the generator's naming: <nodeID>/<type>/<i>.
		sensorID := fmt.Sprintf("edge/f2cload/w%03d/%s/0", q%*workers, st.Name)
		wg.Add(1)
		go func(q int, target, sensorID string) {
			defer wg.Done()
			for i := 0; i < *queryRounds; i++ {
				req, err := protocol.EncodeJSON(protocol.QueryRequest{SensorID: sensorID})
				if err != nil {
					recordErr(&mu, &qErr, &firstErr, err)
					return
				}
				t0 := time.Now()
				_, err = tr.Send(ctx, transport.Message{
					From: "f2cload/query", To: target, Kind: transport.KindQuery,
					Class: transport.ClassQuery, Payload: req,
				})
				if transport.IsOverload(err) {
					mu.Lock()
					qRej++
					mu.Unlock()
					continue
				} else if err != nil {
					recordErr(&mu, &qErr, &firstErr, fmt.Errorf("query worker %d: %w", q, err))
					continue
				}
				queryHist.Observe(time.Since(t0))
			}
		}(q, target, sensorID)
	}
	wg.Wait()
	elapsed := time.Since(start)
	queryElapsed := time.Since(queryStart)

	rep := report{
		Targets:      targets,
		Workers:      *workers,
		SensorsTotal: *workers * *sensors,
		Ingest:       plane(ingestHist, ingErr, elapsed),
	}
	rep.Ingest.Readings = sent
	rep.Ingest.WireBytes = bytes
	rep.Ingest.PerSec = float64(sent) / elapsed.Seconds()
	rep.Ingest.Rejected = ingRej
	if *queryWorkers > 0 {
		qp := plane(queryHist, qErr, queryElapsed)
		qp.Rejected = qRej
		rep.Query = &qp
	}
	if *scrape {
		rep.Overload, err = scrapeOverload(ctx, tr, scrapeIDs)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "sent %d readings (%d batches, %d wire bytes) to %d nodes in %v: %.0f readings/s, ingest p50 %.2fms p99 %.2fms\n",
		sent, ingestHist.Count(), bytes, len(targets), elapsed.Round(time.Millisecond),
		rep.Ingest.PerSec, rep.Ingest.P50Ms, rep.Ingest.P99Ms)
	if ingRej > 0 {
		fmt.Fprintf(out, "ingest rejected by admission control: %d batches\n", ingRej)
	}
	if rep.Query != nil {
		fmt.Fprintf(out, "queries: %d in %v, p50 %.2fms p99 %.2fms (%d errors, %d rejected)\n",
			rep.Query.Requests, queryElapsed.Round(time.Millisecond), rep.Query.P50Ms, rep.Query.P99Ms, qErr, qRej)
	}
	if rep.Overload != nil {
		fmt.Fprintf(out, "overload counters: degraded %d, summaries %d, shed %d, sched rejected %d\n",
			rep.Overload["flush.degraded_readings"], rep.Overload["flush.summaries_emitted"],
			rep.Overload["flush.shed"], rep.Overload["sched.ingest.rejected"])
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return nil
}

// plane snapshots a histogram into the report form.
func plane(h *metrics.Histogram, errs int64, elapsed time.Duration) planeReport {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return planeReport{
		Requests:   h.Count(),
		Errors:     errs,
		ElapsedSec: elapsed.Seconds(),
		PerSec:     float64(h.Count()) / elapsed.Seconds(),
		P50Ms:      ms(h.Quantile(0.50)),
		P99Ms:      ms(h.Quantile(0.99)),
		MaxMs:      ms(h.Max()),
	}
}

// scrapeOverload pulls every node's metrics registry over the control
// plane and sums the overload-control counters — admission scheduler,
// degrade-to-summary, shed — across the deployment, keyed by counter
// name with the per-node prefix stripped.
func scrapeOverload(ctx context.Context, tr transport.Transport, ids []string) (map[string]int64, error) {
	req, err := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpMetrics})
	if err != nil {
		return nil, err
	}
	sums := make(map[string]int64)
	for _, id := range ids {
		reply, err := tr.Send(ctx, transport.Message{
			From: "f2cload/scrape", To: id, Kind: transport.KindControl, Payload: req,
		})
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", id, err)
		}
		var exp metrics.RegistryExport
		if err := protocol.DecodeJSON(reply, &exp); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", id, err)
		}
		for name, v := range exp.Counters {
			key := strings.TrimPrefix(name, id+".")
			if overloadCounter(key) {
				sums[key] += v
			}
		}
	}
	return sums, nil
}

// overloadCounter selects the counters the scrape aggregates.
func overloadCounter(name string) bool {
	return strings.HasPrefix(name, "sched.") ||
		strings.Contains(name, "degraded") ||
		strings.Contains(name, "summaries") ||
		strings.Contains(name, "shed")
}

// recordErr counts a plane error and keeps the first one for the exit
// status.
func recordErr(mu *sync.Mutex, counter *int64, first *error, err error) {
	mu.Lock()
	defer mu.Unlock()
	*counter++
	if *first == nil {
		*first = err
	}
}
