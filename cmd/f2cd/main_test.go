package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/core"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

func TestArgValidation(t *testing.T) {
	cases := [][]string{
		{},                             // missing id
		{"-id", "x"},                   // missing layer
		{"-id", "x", "-layer", "warp"}, // unknown layer
		{"-id", "x", "-layer", "fog1"}, // missing parent
		{"-id", "x", "-layer", "fog1", "-parent", "p"},                       // missing -parent-addr / -cluster
		{"-id", "x", "-layer", "fog1", "-parent", "p", "-transport", "http"}, // the retired HTTP plane's flag
		{"-id", "x", "-layer", "cloud", "-config", filepath.Join(t.TempDir(), "missing.json")},
		{"-id", "x", "-layer", "fog1", "-parent", "p", "-parent-addr", "127.0.0.1:1", "-flush", "30s"}, // a profile flag: the document's now
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestAllInOneRouter drives the all-in-one gateway over its one tcpnet
// listener: every hosted node is reached through the same port by the
// frame's To, an empty target reaches the cloud, an edge batch sent to
// a section that does not own its type lands at the type's ring owner,
// and an unknown node id comes back as the remote handler's error.
func TestAllInOneRouter(t *testing.T) {
	topo, err := topology.New("Mini", []topology.District{{Name: "A", Sections: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{
		Topology: topo, Clock: sim.WallClock{}, Dedup: true, Quality: true,
		Codec: aggregate.CodecNone, ElasticOwnership: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	srv, err := tcpnet.NewServer(core.CloudID, "127.0.0.1:0", allInOneRouter{sys: sys}, tcpnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Every id the client addresses resolves to the one gateway port.
	district := sys.Fog2IDs()[0]
	const typ = "traffic"
	owner, ok := sys.OwnerOf(district, typ)
	if !ok {
		t.Fatalf("no ring owner for %s", typ)
	}
	var other string
	for _, id := range sys.Fog1IDs() {
		if id != owner {
			other = id
			break
		}
	}
	tr := tcpnet.New(tcpnet.Options{})
	defer tr.Close()
	for _, node := range []string{owner, other, district, "cloud", "", "fog1/nope"} {
		tr.AddPeer(node, srv.Addr())
	}
	ctx := context.Background()
	send := func(to string, kind transport.Kind, payload []byte) ([]byte, error) {
		return tr.Send(ctx, transport.Message{From: "edge", To: to, Kind: kind, Payload: payload})
	}

	// Ingest at a section that does not own the type: the batch lands
	// on the ring owner, not on the addressed node.
	at := time.Now()
	batch := &model.Batch{
		NodeID: "edge", TypeName: typ, Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{
			SensorID: "loop-1", TypeName: typ, Category: model.CategoryUrban,
			Time: at, Value: 44, Unit: "km/h",
		}},
	}
	payload, err := protocol.EncodeBatchPayload(batch, aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := send(other, transport.KindBatch, payload); err != nil {
		t.Fatal(err)
	}
	if n, _ := sys.Fog1(other); n.Status().StoredReadings != 0 {
		t.Errorf("non-owner %s stored the batch its ring owner %s should have", other, owner)
	}

	// Query the owner through the gateway.
	q, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "loop-1"})
	reply, err := send(owner, transport.KindQuery, q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Readings[0].Value != 44 {
		t.Errorf("owner %s answers %+v through the gateway", owner, resp)
	}

	// Control at fog2, and status at the cloud by name and by the empty
	// default target.
	flush, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	if _, err := send(owner, transport.KindControl, flush); err != nil {
		t.Fatal(err)
	}
	if _, err := send(district, transport.KindControl, flush); err != nil {
		t.Fatal(err)
	}
	st, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	for _, to := range []string{"cloud", ""} {
		reply, err = send(to, transport.KindControl, st)
		if err != nil {
			t.Fatal(err)
		}
		var status protocol.StatusResponse
		if err := protocol.DecodeJSON(reply, &status); err != nil {
			t.Fatal(err)
		}
		if status.NodeID != "cloud" || status.StoredReadings != 1 {
			t.Errorf("status addressed to %q = %+v, want the cloud holding the one reading", to, status)
		}
	}

	// An unknown node id is the remote handler's error, not a hang or a
	// transport failure.
	_, err = send("fog1/nope", transport.KindQuery, q)
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		t.Errorf("unknown node: err = %v, want *transport.RemoteError", err)
	}
}
