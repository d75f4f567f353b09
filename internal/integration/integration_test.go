// Package integration_test assembles a real three-layer hierarchy
// over tcpnet loopback sockets — the wiring f2cd daemons assemble
// across processes — and drives data end to end through them.
package integration_test

import (
	"context"
	"io"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/query"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// deployment is a loopback city: 1 fog1 + 1 fog2 + cloud, each behind
// its own tcpnet server on an ephemeral port, each fog node dialing
// its parent with its own client transport.
type deployment struct {
	fog1  *fognode.Node
	fog2  *fognode.Node
	cloud *cloud.Node
	clock *sim.VirtualClock

	fog1Srv, fog2Srv, cloudSrv *tcpnet.Server
	client                     *tcpnet.Transport
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	clock := sim.NewVirtualClock(t0)
	serve := func(id string, h transport.Handler) *tcpnet.Server {
		t.Helper()
		srv, err := tcpnet.NewServer(id, "127.0.0.1:0", h, tcpnet.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	dial := func(id string, srv *tcpnet.Server) *tcpnet.Transport {
		tr := tcpnet.New(tcpnet.Options{})
		t.Cleanup(func() { _ = tr.Close() })
		tr.AddPeer(id, srv.Addr())
		return tr
	}

	cl, err := cloud.New(cloud.Config{ID: "cloud", City: "loopback", Clock: clock, MaxQueryPage: 4})
	if err != nil {
		t.Fatal(err)
	}
	cloudSrv := serve("cloud", cl)

	f2, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog2/d01", Layer: topology.LayerFog2, Parent: "cloud", Name: "District 1",
		},
		City: "loopback", Clock: clock, Transport: dial("cloud", cloudSrv),
		Retention: 24 * time.Hour, Codec: aggregate.CodecZip,
		FlushInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fog2Srv := serve("fog2/d01", f2)

	f1, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/d01-s01", Layer: topology.LayerFog1, Parent: "fog2/d01", Name: "Section 1",
		},
		City: "loopback", Clock: clock, Transport: dial("fog2/d01", fog2Srv),
		Retention: time.Hour, Codec: aggregate.CodecZip, Dedup: true, Quality: true,
		FlushInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fog1Srv := serve("fog1/d01-s01", f1)

	client := dial("fog1/d01-s01", fog1Srv)
	client.AddPeer("fog2/d01", fog2Srv.Addr())
	client.AddPeer("cloud", cloudSrv.Addr())

	return &deployment{
		fog1: f1, fog2: f2, cloud: cl, clock: clock,
		fog1Srv: fog1Srv, fog2Srv: fog2Srv, cloudSrv: cloudSrv,
		client: client,
	}
}

func sensorBatch(at time.Time, vals ...float64) *model.Batch {
	b := &model.Batch{NodeID: "edge/device-9", TypeName: "weather", Category: model.CategoryUrban, Collected: at}
	for i, v := range vals {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: "station/" + string(rune('a'+i)), TypeName: "weather",
			Category: model.CategoryUrban, Time: at, Value: v, Unit: "hPa",
		})
	}
	return b
}

func TestTCPHierarchyEndToEnd(t *testing.T) {
	d := deploy(t)
	ctx := context.Background()

	// A sensor sends a batch envelope to the fog1 node.
	payload, err := protocol.EncodeBatchPayload(sensorBatch(t0, 1013, 1015), aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Send(ctx, transport.Message{
		From: "edge/device-9", To: "fog1/d01-s01", Kind: transport.KindBatch,
		Class: "urban", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}

	// Real-time query against fog1.
	q, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "station/a"})
	reply, err := d.client.Send(ctx, transport.Message{
		From: "app", To: "fog1/d01-s01", Kind: transport.KindQuery, Payload: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Readings[0].Value != 1013 {
		t.Fatalf("fog1 query = %+v", resp)
	}

	// Control-plane flushes push data up: fog1 -> fog2 -> cloud.
	flushReq, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	for _, node := range []string{"fog1/d01-s01", "fog2/d01"} {
		if _, err := d.client.Send(ctx, transport.Message{
			From: "f2cctl", To: node, Kind: transport.KindControl, Payload: flushReq,
		}); err != nil {
			t.Fatalf("flush %s: %v", node, err)
		}
	}

	// The cloud has archived the readings.
	if got := d.cloud.Archive().Len(); got != 1 {
		t.Fatalf("cloud archive = %d records", got)
	}
	hist := d.cloud.Historical("weather", t0.Add(-time.Hour), t0.Add(time.Hour))
	if len(hist) != 2 {
		t.Fatalf("historical = %d readings", len(hist))
	}

	// Status reflects the flow.
	statusReq, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	reply, err = d.client.Send(ctx, transport.Message{
		From: "f2cctl", To: "fog1/d01-s01", Kind: transport.KindControl, Payload: statusReq,
	})
	if err != nil {
		t.Fatal(err)
	}
	var st protocol.StatusResponse
	if err := protocol.DecodeJSON(reply, &st); err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "fog1/d01-s01" || st.PendingBatches != 0 {
		t.Errorf("status = %+v", st)
	}
}

func TestTCPHierarchyBackgroundFlushers(t *testing.T) {
	d := deploy(t)
	ctx := context.Background()

	d.fog1.Start()
	d.fog2.Start()
	defer func() {
		if err := d.fog1.Close(ctx); err != nil {
			t.Errorf("close fog1: %v", err)
		}
		if err := d.fog2.Close(ctx); err != nil {
			t.Errorf("close fog2: %v", err)
		}
	}()

	if err := d.fog1.Ingest(sensorBatch(t0, 1020)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for d.cloud.Archive().Len() == 0 {
		select {
		case <-deadline:
			t.Fatal("data never reached the cloud via background flushers")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// federatedBatch builds one sensor's stream with distinct timestamps
// so paged scans have an ordered window to walk.
func federatedBatch(at time.Time, n int) *model.Batch {
	b := &model.Batch{NodeID: "edge/device-7", TypeName: "weather", Category: model.CategoryUrban, Collected: at}
	for i := 0; i < n; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: "station/walk", TypeName: "weather", Category: model.CategoryUrban,
			Time: at.Add(time.Duration(i) * time.Second), Value: 1000 + float64(i), Unit: "hPa",
		})
	}
	return b
}

// TestTCPFederatedQueryAndAggregate drives the hierarchical query
// engine through real sockets: a federated range query routed by the
// tier planner, a manual page-cursor walk against the cloud (each
// response bounded by the server's page limit), and an aggregate
// push-down where only summary-sized payloads cross the wire.
func TestTCPFederatedQueryAndAggregate(t *testing.T) {
	d := deploy(t)
	ctx := context.Background()
	const total = 25

	payload, err := protocol.EncodeBatchPayload(federatedBatch(t0, total), aggregate.CodecZip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Send(ctx, transport.Message{
		From: "edge/device-7", To: "fog1/d01-s01", Kind: transport.KindBatch,
		Class: "urban", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	flushReq, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	for _, node := range []string{"fog1/d01-s01", "fog2/d01"} {
		if _, err := d.client.Send(ctx, transport.Message{
			From: "ctl", To: node, Kind: transport.KindControl, Payload: flushReq,
		}); err != nil {
			t.Fatalf("flush %s: %v", node, err)
		}
	}

	eng, err := query.New(query.Config{
		Self:      "app",
		Transport: d.client,
		Clock:     d.clock,
		Siblings:  []string{"fog1/d01-s01"},
		Parent:    "fog2/d01",
		Districts: []string{"fog2/d01"},
		CloudID:   "cloud",
		PageLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Recent range: the planner routes to the fog layer-1 tier.
	readings, src, err := eng.Range(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceNeighbor || len(readings) != total {
		t.Fatalf("recent range = %d readings from %v", len(readings), src)
	}

	// Aggregate push-down over the recent window: the district
	// computes the partial; only the summary crosses the wire.
	sum, src, err := eng.Aggregate(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceParent || sum.Count != total || sum.Min != 1000 || sum.Max != 1000+total-1 {
		t.Fatalf("aggregate = %+v from %v", sum, src)
	}

	// Manual page-cursor walk against the cloud: the server
	// was deployed with MaxQueryPage 4, so no response may carry more.
	var walked []model.Reading
	cursor, pages := "", 0
	for {
		req, _ := protocol.EncodeJSON(protocol.QueryRequest{
			TypeName: "weather",
			FromUnix: t0.Add(-time.Minute).UnixNano(), ToUnix: t0.Add(time.Hour).UnixNano(),
			Limit: 100, Cursor: cursor, // ask big: the server clamps to its limit
		})
		reply, err := d.client.Send(ctx, transport.Message{
			From: "app", To: "cloud", Kind: transport.KindQuery,
			Class: transport.ClassQuery, Payload: req,
		})
		if err != nil {
			t.Fatal(err)
		}
		page, err := protocol.DecodeQueryPage(reply)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Readings) > 4 {
			t.Fatalf("page %d carries %d readings, server page limit is 4", pages, len(page.Readings))
		}
		walked = append(walked, page.Readings...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != total || pages != (total+3)/4 {
		t.Fatalf("cursor walk = %d readings in %d pages, want %d in %d", len(walked), pages, total, (total+3)/4)
	}
	for i := 1; i < len(walked); i++ {
		if walked[i].Time.Before(walked[i-1].Time) {
			t.Fatalf("walk out of order at %d", i)
		}
	}

	// Two days later the fog windows have passed: the same federated
	// query must be routed straight to the cloud archive, paged.
	d.clock.Advance(48 * time.Hour)
	readings, src, err = eng.Range(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceCloud || len(readings) != total {
		t.Fatalf("historical range = %d readings from %v", len(readings), src)
	}
	sum, src, err = eng.Aggregate(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceCloud || sum.Count != total {
		t.Fatalf("historical aggregate = %+v from %v", sum, src)
	}
}

// TestHTTPOpenDataServedFromHierarchy: readings that climbed the
// hierarchy over tcpnet are published by the cloud's open-data REST
// API, the one surface that stays HTTP.
func TestHTTPOpenDataServedFromHierarchy(t *testing.T) {
	d := deploy(t)
	ctx := context.Background()
	payload, err := protocol.EncodeBatchPayload(sensorBatch(t0, 990), aggregate.CodecZip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Send(ctx, transport.Message{
		From: "edge", To: "fog1/d01-s01", Kind: transport.KindBatch, Class: "urban", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	flushReq, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	for _, node := range []string{"fog1/d01-s01", "fog2/d01"} {
		if _, err := d.client.Send(ctx, transport.Message{
			From: "ctl", To: node, Kind: transport.KindControl, Payload: flushReq,
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(d.cloud.OpenDataHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/opendata/v1/types/weather/readings")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), "990") {
		t.Errorf("open data status = %d, %v:\n%s", resp.StatusCode, err, body)
	}
}

// TestTCPQueryUnderPartition closes real tcpnet servers mid-deployment
// and drives the engine's degraded paths through actual sockets: a
// federated range with the whole fog layer down answers from the
// cloud flagged partial; the aggregate push-down falls back to the
// cloud when the district is down; and with every owner dead the
// engine errors out instead of hanging.
func TestTCPQueryUnderPartition(t *testing.T) {
	d := deploy(t)
	ctx := context.Background()
	const total = 10

	payload, err := protocol.EncodeBatchPayload(federatedBatch(t0, total), aggregate.CodecZip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Send(ctx, transport.Message{
		From: "edge/device-7", To: "fog1/d01-s01", Kind: transport.KindBatch,
		Class: "urban", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	flushReq, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	for _, node := range []string{"fog1/d01-s01", "fog2/d01"} {
		if _, err := d.client.Send(ctx, transport.Message{
			From: "ctl", To: node, Kind: transport.KindControl, Payload: flushReq,
		}); err != nil {
			t.Fatalf("flush %s: %v", node, err)
		}
	}

	eng, err := query.New(query.Config{
		Self:      "app",
		Transport: d.client,
		Clock:     d.clock,
		Siblings:  []string{"fog1/d01-s01"},
		Parent:    "fog2/d01",
		Districts: []string{"fog2/d01"},
		CloudID:   "cloud",
		PageLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The whole fog layer goes down; the data survives at the cloud.
	d.fog1Srv.Close()
	d.fog2Srv.Close()

	res, err := eng.RangeDetailed(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != query.SourceCloud || len(res.Readings) != total {
		t.Fatalf("range = %d readings from %v, want %d from cloud", len(res.Readings), res.Source, total)
	}
	sort.Strings(res.Unreachable)
	if want := []string{"fog1/d01-s01", "fog2/d01"}; !res.Partial || !reflect.DeepEqual(res.Unreachable, want) {
		t.Errorf("partial=%v unreachable=%v, want both dead fog tiers %v named", res.Partial, res.Unreachable, want)
	}

	// Aggregate push-down: the only district owner is dead, so the
	// engine takes the cloud's complete summary (no silent partial).
	agg, err := eng.AggregateDetailed(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Partial || agg.Source != query.SourceCloud || agg.Summary.Count != total {
		t.Fatalf("aggregate = %+v, want complete count %d from cloud", agg, total)
	}

	// Every owner dead: explicit errors, bounded by the fan-out
	// timeout — never a hang.
	d.cloudSrv.Close()
	if _, err := eng.RangeDetailed(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour), 1000); err == nil {
		t.Error("range with every tier dead must error")
	}
	if _, err := eng.AggregateDetailed(ctx, "weather", t0.Add(-time.Minute), t0.Add(time.Hour)); err == nil {
		t.Error("aggregate with every owner dead must error")
	}
}
