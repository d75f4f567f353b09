package main

import (
	"os"
	"testing"

	"f2c/internal/aggregate"
	"f2c/internal/fognode"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport/tcpnet"
)

func TestLoadAgainstFogNode(t *testing.T) {
	n, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/test", Layer: topology.LayerFog1, Parent: "fog2/test", Name: "t",
		},
		Clock: sim.WallClock{}, // f2cload stamps readings with wall time
		Codec: aggregate.CodecNone, Dedup: true, Quality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tcpnet.NewServer("fog1/test", "127.0.0.1:0", n, tcpnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	err = run([]string{
		"-node", srv.Addr(), "-node-id", "fog1/test",
		"-type", "traffic", "-sensors", "10", "-rounds", "3", "-interval", "1ms",
	}, os.Stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := n.Status()
	if st.IngestedBatches != 3 {
		t.Errorf("ingested = %d batches, want 3", st.IngestedBatches)
	}
	if st.StoredReadings == 0 {
		t.Error("no readings stored")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{}, // missing node
		{"-node", "127.0.0.1:1", "-type", "unobtainium"},
		{"-node", "127.0.0.1:1", "-sensors", "0"},
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunUnreachableNode(t *testing.T) {
	err := run([]string{
		"-node", "127.0.0.1:1", "-rounds", "1", "-timeout", "200ms",
	}, os.Stdout)
	if err == nil {
		t.Error("expected transport error")
	}
}
