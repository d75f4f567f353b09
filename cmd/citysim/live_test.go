package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/config"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

// liveGrid is a 2x2 deployment on the Barcelona profile.
func liveGrid() config.Deployment {
	dep := config.Barcelona()
	dep.Districts = []config.DistrictSpec{{Name: "d01", Sections: 2}, {Name: "d02", Sections: 2}}
	return dep
}

// clientFor dials every node of a hosted city.
func clientFor(t *testing.T, c *liveCity) *tcpnet.Transport {
	t.Helper()
	tr := tcpnet.New(tcpnet.Options{DialTimeout: 30 * time.Second})
	for id, addr := range c.cluster.Nodes {
		tr.AddPeer(id, addr)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// TestBurst is the overload-control smoke over real sockets: a live
// loopback city with the ingest rate cap, the buffer bound and
// degrade-to-summary on takes a closed-loop burst of batches larger
// than the bound while a query plane keeps reading.
// It asserts what is deterministic — degradation engaged and reached
// the parent, every query was answered, and after the drain the
// conservation ledger is exact. The burst/idle query-p99 ratio is
// logged, not asserted: a latency SLO is a benchmark's to hold
// (bench/), not a unit test's.
func TestBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("hosts a live city and saturates it")
	}
	const (
		bound    = 4000
		perBatch = bound + bound/2 // every batch overflows the bound: degradation does not depend on timing
		rounds   = 3
		typ      = "temperature"
	)
	dep := liveGrid()
	dep.Fog1FlushSeconds, dep.Fog2FlushSeconds = 1, 2
	dep.IngestRateBytes = 1 << 20
	dep.MaxPendingReadings = bound
	dep.DegradeToSummary = true
	city, err := hostLive(dep, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = city.Close()
		}
	}()
	tr := clientFor(t, city)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := model.TypeByName(typ)
	if err != nil {
		t.Fatal(err)
	}
	var fog1, fogs []*liveMember
	for _, m := range city.members {
		if m.fog == nil {
			continue
		}
		fogs = append(fogs, m)
		if m.fog.Layer() == topology.LayerFog1 {
			fog1 = append(fog1, m)
		}
	}

	// queryPlane reads the latest value of worker w's first sensor at
	// its fog1 node until stop closes (at least min times), and returns
	// the p99 round trip. Any error — transport, overload rejection,
	// undecodable reply — fails the test: every query is answered.
	queryPlane := func(stop <-chan struct{}, min int) time.Duration {
		var mu sync.Mutex
		var lat []time.Duration
		var wg sync.WaitGroup
		for w, m := range fog1 {
			wg.Add(1)
			go func(w int, target string) {
				defer wg.Done()
				req, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: fmt.Sprintf("edge/burst/w%d/%s/0", w, typ)})
				for i := 0; ; i++ {
					select {
					case <-stop:
						if i >= min {
							return
						}
					default:
					}
					t0 := time.Now()
					reply, err := tr.Send(ctx, transport.Message{
						From: "burst/query", To: target, Kind: transport.KindQuery, Class: transport.ClassQuery, Payload: req,
					})
					if err == nil {
						_, err = protocol.DecodeQueryPage(reply)
					}
					if err != nil {
						t.Errorf("query %d at %s unanswered: %v", i, target, err)
						return
					}
					mu.Lock()
					lat = append(lat, time.Since(t0))
					mu.Unlock()
				}
			}(w, m.id)
		}
		wg.Wait()
		if len(lat) == 0 {
			return 0
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	idle := make(chan struct{})
	close(idle)
	idleP99 := queryPlane(idle, 200)

	// The burst: one closed-loop sender per fog1 node, flat out.
	var rejected atomic.Int64
	stop := make(chan struct{})
	var senders sync.WaitGroup
	for w, m := range fog1 {
		gen, err := sensor.NewGenerator(sensor.Config{Type: st, NodeID: fmt.Sprintf("edge/burst/w%d", w), Sensors: perBatch, Seed: int64(w + 1)})
		if err != nil {
			t.Fatal(err)
		}
		senders.Add(1)
		go func(gen *sensor.Generator, target string) {
			defer senders.Done()
			for i := 0; i < rounds; i++ {
				b := gen.Next(time.Now())
				payload, err := protocol.EncodeBatchPayload(b, aggregate.CodecNone)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = tr.Send(ctx, transport.Message{
					From: b.NodeID, To: target, Kind: transport.KindBatch, Class: st.Category.String(), Payload: payload,
				})
				if transport.IsOverload(err) {
					rejected.Add(1) // turned away whole: never accepted, outside the ledger
				} else if err != nil {
					t.Errorf("ingest at %s: %v", target, err)
					return
				}
			}
		}(gen, m.id)
	}
	go func() { senders.Wait(); close(stop) }()
	burstP99 := queryPlane(stop, 200)
	senders.Wait()

	// Drain: flush fog1 then fog2 until nothing is pending, then once
	// more so summaries absorbed in the last round move on too.
	settled := 0
	for round := 0; settled < 2; round++ {
		if round == 100 {
			t.Fatal("the city never drained")
		}
		pending := 0
		for _, layer := range []topology.Layer{topology.LayerFog1, topology.LayerFog2} {
			for _, m := range fogs {
				if m.fog.Layer() == layer {
					_ = m.fog.Flush(ctx) // a deferred flush is retried by the next round
				}
			}
		}
		for _, m := range fogs {
			pending += m.fog.PendingBatches()
		}
		if pending == 0 {
			settled++
		} else {
			settled = 0
			time.Sleep(50 * time.Millisecond)
		}
	}

	var accepted, degraded, summaries, shed int64
	for _, m := range fog1 {
		_, kept := m.fog.DedupStats()
		accepted += kept
	}
	for _, m := range fogs {
		degraded += m.reg.Counter(m.id + ".flush.degraded_readings").Value()
		summaries += m.reg.Counter(m.id + ".flush.summaries_emitted").Value()
		shed += m.fog.ShedReadings()
	}
	if degraded == 0 || summaries == 0 {
		t.Errorf("flush.degraded_readings = %d, flush.summaries_emitted = %d: the burst never engaged degrade-to-summary", degraded, summaries)
	}
	now := time.Now()
	preserved := int64(len(city.cloud.Historical(typ, now.Add(-time.Hour), now.Add(time.Hour))))
	var cloudDegraded int64
	for _, w := range city.cloud.DegradedSummaries(typ) {
		cloudDegraded += w.Summary.Count
	}
	if got := preserved + cloudDegraded + shed; got != accepted || accepted == 0 {
		t.Errorf("conservation broken: cloud preserved %d + cloud degraded %d + fog shed %d = %d, fog1 accepted %d",
			preserved, cloudDegraded, shed, got, accepted)
	}
	t.Logf("burst: %d readings accepted (%d batches rejected by admission), %d preserved raw, %d degraded into %d summary pushes, %d shed",
		accepted, rejected.Load(), preserved, cloudDegraded, summaries, shed)
	t.Logf("query p99: idle %v, under burst %v (%.1fx)", idleP99, burstP99, float64(burstP99)/float64(idleP99))

	closed = true
	if err := city.Close(); err != nil {
		t.Errorf("closing the drained city: %v", err)
	}
}

// TestLiveCityRunsTheDocumentProfile: a live city given a data dir
// runs, on every node, the profile an f2cd daemon runs — journal under
// <dir>/<id>, segment store under <dir>/<id>/store, admission gating
// the handlers — and recovers it on a second hosting of the same
// directory.
func TestLiveCityRunsTheDocumentProfile(t *testing.T) {
	dep := liveGrid()
	dep.DataDir = t.TempDir()
	st, err := model.TypeByName("traffic")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sensor.NewGenerator(sensor.Config{Type: st, NodeID: "edge/profile", Sensors: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.EncodeBatchPayload(gen.Next(time.Now()), aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	latest, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "edge/profile/traffic/0"})
	ctx := context.Background()
	const target = "fog1/d01-s01"

	for life := 1; life <= 2; life++ {
		city, err := hostLive(dep, "127.0.0.1")
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		tr := clientFor(t, city)
		if life == 1 {
			if _, err := tr.Send(ctx, transport.Message{From: "edge/profile", To: target, Kind: transport.KindBatch, Class: "urban", Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		reply, err := tr.Send(ctx, transport.Message{From: "app", To: target, Kind: transport.KindQuery, Class: transport.ClassQuery, Payload: latest})
		if err != nil {
			t.Fatal(err)
		}
		if page, err := protocol.DecodeQueryPage(reply); err != nil || !page.Found {
			t.Errorf("life %d: latest at %s = %+v, %v", life, target, page, err)
		}
		if len(city.members) != 7 {
			t.Fatalf("hosted %d nodes, want 4 fog1 + 2 fog2 + cloud", len(city.members))
		}
		for _, m := range city.members {
			exp := m.reg.Export()
			if _, ok := exp.Counters[m.id+".sched.query.admitted"]; !ok {
				t.Errorf("life %d %s: no admission scheduler in the node's registry", life, m.id)
			}
			if _, ok := exp.Gauges[m.id+"."+metrics.StorageSegments]; !ok {
				t.Errorf("life %d %s: no segment store in the node's registry", life, m.id)
			}
			if logs, _ := filepath.Glob(filepath.Join(dep.DataDir, m.id, "wal-*")); len(logs) == 0 {
				t.Errorf("life %d %s: no journal under <dir>/<id>", life, m.id)
			}
			if _, err := os.Stat(filepath.Join(dep.DataDir, m.id, "store", "wal")); !os.IsNotExist(err) {
				t.Errorf("life %d %s: a store WAL under <dir>/<id>/store: the journal is the store's log (stat err %v)", life, m.id, err)
			}
		}
		if err := city.Close(); err != nil {
			t.Errorf("life %d: close: %v", life, err)
		}
	}
}

// TestLiveCityRefusesIgnoredFields: the live city hosts each node on
// its own, like f2cd daemons, so it runs without elastic ownership and
// without per-category layer-1 flush periods; a document asking for
// either is refused, naming the field, before any node starts.
func TestLiveCityRefusesIgnoredFields(t *testing.T) {
	elastic := liveGrid()
	elastic.ElasticOwnership = true
	byCategory := liveGrid()
	byCategory.Fog1FlushByCategorySeconds = map[string]int{"urban": 300}
	for field, dep := range map[string]config.Deployment{
		"elasticOwnership":           elastic,
		"fog1FlushByCategorySeconds": byCategory,
	} {
		city, err := hostLive(dep, "127.0.0.1")
		if city != nil {
			_ = city.Close()
		}
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("live city with %s: err = %v, want a refusal naming the field", field, err)
		}
	}
}
