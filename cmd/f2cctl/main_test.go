package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

func TestLocalCommands(t *testing.T) {
	if err := run([]string{"dlc"}); err != nil {
		t.Errorf("dlc: %v", err)
	}
	if err := run([]string{"topology"}); err != nil {
		t.Errorf("topology: %v", err)
	}
}

func TestArgErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"status"}, // missing -node
		{"-node", "http://x", "teleport"},
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func testNodeServer(t *testing.T) (*fognode.Node, *httptest.Server) {
	t.Helper()
	n, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/test", Layer: topology.LayerFog1, Parent: "fog2/test", Name: "test",
		},
		Clock: sim.NewVirtualClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)),
		Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(transport.NewHTTPHandler("fog1/test", n))
	t.Cleanup(srv.Close)
	return n, srv
}

func TestRemoteStatusAndQueries(t *testing.T) {
	n, srv := testNodeServer(t)
	at := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := n.Ingest(&model.Batch{
		NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{
			SensorID: "s1", TypeName: "traffic", Category: model.CategoryUrban,
			Time: at, Value: 33, Unit: "km/h",
		}},
	}); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-transport", "http", "-node", srv.URL, "status"}); err != nil {
		t.Errorf("status: %v", err)
	}
	if err := run([]string{"-transport", "http", "-node", srv.URL, "latest", "s1"}); err != nil {
		t.Errorf("latest: %v", err)
	}
	if err := run([]string{"-transport", "http", "-node", srv.URL, "latest", "ghost"}); err != nil {
		t.Errorf("latest miss should print 'no data', not error: %v", err)
	}
	if err := run([]string{"-transport", "http", "-node", srv.URL, "range", "traffic",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("range: %v", err)
	}
	// Paged range: -limit 1 forces the cursor walk over every page.
	if err := run([]string{"-transport", "http", "-node", srv.URL, "-limit", "1", "range", "traffic",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("paged range: %v", err)
	}
	// Aggregate push-down: only the summary crosses the wire.
	if err := run([]string{"-transport", "http", "-node", srv.URL, "sum", "traffic",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("sum: %v", err)
	}
	if err := run([]string{"-transport", "http", "-node", srv.URL, "sum", "ghost",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("sum miss should print 'no data', not error: %v", err)
	}
	// Migration routing view: with no rebalance active the node
	// reports zero counters and no forwarding routes.
	if err := run([]string{"-transport", "http", "-node", srv.URL, "-node-id", "fog1/test", "routes"}); err != nil {
		t.Errorf("routes: %v", err)
	}
	n.SetRoute("traffic", "fog1/test2")
	if err := run([]string{"-transport", "http", "-node", srv.URL, "-node-id", "fog1/test", "routes"}); err != nil {
		t.Errorf("routes with forwarding active: %v", err)
	}
	// Usage errors.
	if err := run([]string{"-transport", "http", "-node", srv.URL, "latest"}); err == nil {
		t.Error("latest without args must fail")
	}
	if err := run([]string{"-transport", "http", "-node", srv.URL, "range", "traffic", "not-a-time", "also-not"}); err == nil {
		t.Error("bad times must fail")
	}
	if err := run([]string{"-transport", "http", "-node", srv.URL, "sum", "traffic", "bad", "worse"}); err == nil {
		t.Error("bad sum times must fail")
	}
}

func TestRemoteFlushFailsWithoutReachableParent(t *testing.T) {
	// The node has no transport to its parent: flush must surface
	// the remote error.
	_, srv := testNodeServer(t)
	n2, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/test2", Layer: topology.LayerFog1, Parent: "fog2/test", Name: "t2",
		},
		Clock: sim.WallClock{},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = n2
	// Empty node: flush succeeds trivially (nothing pending).
	if err := run([]string{"-transport", "http", "-node", srv.URL, "flush"}); err != nil {
		t.Errorf("empty flush: %v", err)
	}
}
