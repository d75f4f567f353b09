package main

import (
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport/tcpnet"
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
		{"-node", "127.0.0.1:1", "teleport"},
		{"-transport", "http", "-node", "127.0.0.1:1", "status"}, // the retired HTTP plane's flag
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// testNodeServer serves a fog node over tcpnet and returns it with a
// runner addressing it by id through that listener.
func testNodeServer(t *testing.T) (*fognode.Node, func(args ...string) error) {
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
	srv, err := tcpnet.NewServer("fog1/test", "127.0.0.1:0", n, tcpnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return n, func(args ...string) error {
		return run(append([]string{"-node", srv.Addr(), "-node-id", "fog1/test"}, args...))
	}
}

func TestRemoteStatusAndQueries(t *testing.T) {
	n, ctl := testNodeServer(t)
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

	if err := ctl("status"); err != nil {
		t.Errorf("status: %v", err)
	}
	if err := ctl("latest", "s1"); err != nil {
		t.Errorf("latest: %v", err)
	}
	if err := ctl("latest", "ghost"); err != nil {
		t.Errorf("latest miss should print 'no data', not error: %v", err)
	}
	if err := ctl("range", "traffic", "2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"); err != nil {
		t.Errorf("range: %v", err)
	}
	// Paged range: -limit 1 forces the cursor walk over every page.
	if err := ctl("-limit", "1", "range", "traffic", "2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"); err != nil {
		t.Errorf("paged range: %v", err)
	}
	// Aggregate push-down: only the summary crosses the wire.
	if err := ctl("sum", "traffic", "2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"); err != nil {
		t.Errorf("sum: %v", err)
	}
	if err := ctl("sum", "ghost", "2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"); err != nil {
		t.Errorf("sum miss should print 'no data', not error: %v", err)
	}
	// Migration routing view: with no rebalance active the node
	// reports zero counters and no forwarding routes.
	if err := ctl("routes"); err != nil {
		t.Errorf("routes: %v", err)
	}
	n.SetRoute("traffic", "fog1/test2")
	if err := ctl("routes"); err != nil {
		t.Errorf("routes with forwarding active: %v", err)
	}
	// Usage errors.
	if err := ctl("latest"); err == nil {
		t.Error("latest without args must fail")
	}
	if err := ctl("range", "traffic", "not-a-time", "also-not"); err == nil {
		t.Error("bad times must fail")
	}
	if err := ctl("sum", "traffic", "bad", "worse"); err == nil {
		t.Error("bad sum times must fail")
	}
}

func TestRemoteFlushFailsWithoutReachableParent(t *testing.T) {
	// The node has no transport to its parent: flush must surface
	// the remote error.
	_, ctl := testNodeServer(t)
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
	if err := ctl("flush"); err != nil {
		t.Errorf("empty flush: %v", err)
	}
}
