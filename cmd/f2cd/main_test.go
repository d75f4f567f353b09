package main

import (
	"context"
	"net/http/httptest"
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
)

func TestArgValidation(t *testing.T) {
	cases := [][]string{
		{},                             // missing id
		{"-id", "x"},                   // missing layer
		{"-id", "x", "-layer", "warp"}, // unknown layer
		{"-id", "x", "-layer", "fog1"}, // missing parent
		{"-id", "x", "-layer", "fog1", "-parent", "p"},                       // tcp is the default: missing -parent-addr / -cluster
		{"-id", "x", "-layer", "fog1", "-parent", "p", "-transport", "http"}, // http: missing -parent-url
		{"-id", "x", "-layer", "fog1", "-parent", "p", "-transport", "carrier-pigeon"},
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

func TestAllInOneRouter(t *testing.T) {
	topo, err := topology.New("Mini", []topology.District{{Name: "A", Sections: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{
		Topology: topo, Clock: sim.WallClock{}, Dedup: true, Quality: true,
		Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(allInOneRouter{sys: sys})
	defer srv.Close()

	tr := transport.NewHTTPTransport(5 * time.Second)
	f1 := sys.Fog1IDs()[0]
	for _, node := range []string{f1, "cloud"} {
		tr.AddPeer(node, srv.URL)
	}

	// Ingest a batch at a fog1 node through the gateway.
	at := time.Now()
	batch := &model.Batch{
		NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{
			SensorID: "loop-1", TypeName: "traffic", Category: model.CategoryUrban,
			Time: at, Value: 44, Unit: "km/h",
		}},
	}
	payload, err := protocol.EncodeBatchPayload(batch, aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Send(context.Background(), transport.Message{
		From: "edge", To: f1, Kind: transport.KindBatch, Class: "urban", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}

	// Query the same node through the gateway.
	q, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "loop-1"})
	reply, err := tr.Send(context.Background(), transport.Message{
		From: "app", To: f1, Kind: transport.KindQuery, Payload: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Readings[0].Value != 44 {
		t.Errorf("gateway query = %+v", resp)
	}

	// Cloud status through the gateway (default target routing).
	st, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	reply, err = tr.Send(context.Background(), transport.Message{
		From: "ctl", To: "cloud", Kind: transport.KindControl, Payload: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	var status protocol.StatusResponse
	if err := protocol.DecodeJSON(reply, &status); err != nil {
		t.Fatal(err)
	}
	if status.NodeID != "cloud" {
		t.Errorf("status = %+v", status)
	}

	// Unknown node -> 404 surfaces as a transport error.
	tr.AddPeer("fog1/nope", srv.URL)
	if _, err := tr.Send(context.Background(), transport.Message{
		From: "x", To: "fog1/nope", Kind: transport.KindQuery, Payload: q,
	}); err == nil {
		t.Error("unknown node must fail")
	}

	if err := sys.Close(context.Background()); err != nil {
		t.Errorf("Close: %v", err)
	}
}
