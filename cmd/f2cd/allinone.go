package main

import (
	"context"
	"fmt"
	"log"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/metrics"
	"f2c/internal/sim"
	"f2c/internal/transport"
)

// runAllInOne hosts the entire hierarchy inside one process: every
// fog node over the in-process simulated network, the cloud, and a
// single tcpnet listener in front of them all. Each frame is routed by
// the node it addresses (its To field), so f2cload and f2cctl reach
// any hosted node through the one port by -node-id, and the open-data
// API is served on -opendata-listen — a one-command demo city:
//
//	f2cd -all-in-one -listen :9000 -opendata-listen :8080
//	f2cload -node localhost:9000 -node-id fog1/d01-s01 ...
//	f2cctl  -node localhost:9000 status   # -node-id defaults to the cloud
//	curl http://localhost:8080/opendata/v1/categories
//
// The city is the deployment document's — topology, profile,
// elasticOwnership (scale events need this host: it owns the topology,
// the network and the rings), and standing subscriptions.
func runAllInOne(dep config.Deployment, listen, opendataListen string) error {
	if err := dep.RefuseIgnored("f2cd -all-in-one", true); err != nil {
		return err
	}
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		return err
	}
	// One registry per process: the hosted nodes and the listener
	// export through the same metrics scrape.
	opts.Registry = metrics.NewRegistry()
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	// Standing continuous queries from the deployment document land
	// before traffic does: the subscription router places each on its
	// owning tier (ring owner under elastic ownership, every section
	// otherwise).
	for _, sub := range dep.StandingQueries() {
		if err := sys.Subscribe(sub); err != nil {
			return fmt.Errorf("subscribe %s: %w", sub.ID, err)
		}
	}
	if n := len(dep.Subscriptions); n > 0 {
		log.Printf("registered %d standing subscription(s)", n)
	}
	sys.Start()

	f1, f2, _ := sys.Topology().Counts()
	log.Printf("all-in-one %s: %d fog1 / %d fog2 / 1 cloud", opts.City, f1, f2)
	return serveUntilSignal("all-in-one", listen, allInOneRouter{sys: sys}, opts.Registry,
		opendataListen, sys.Cloud().OpenDataHandler(), sys.Close)
}

// allInOneRouter dispatches each message to the hosted node its frame
// addresses; an empty or "cloud" target reaches the cloud. An edge
// batch addressed at any section is re-addressed to its sensor type's
// ring owner first, as IngestAt does, so elastic rebalance stays
// transparent to edge clients that keep sending to their nearest node.
type allInOneRouter struct {
	sys *core.System
}

func (r allInOneRouter) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	if msg.To == "" || msg.To == core.CloudID {
		return r.sys.Cloud().Handle(ctx, msg)
	}
	if n, ok := r.sys.Fog1(msg.To); ok {
		if msg.Kind == transport.KindBatch {
			if owner := r.sys.ElasticBatchOwner(msg.To, msg.Payload); owner != msg.To {
				if o, ok := r.sys.Fog1(owner); ok {
					msg.To, n = owner, o
				}
			}
		}
		return n.Handle(ctx, msg)
	}
	if n, ok := r.sys.Fog2(msg.To); ok {
		return n.Handle(ctx, msg)
	}
	return nil, fmt.Errorf("unknown node %q", msg.To)
}

var _ transport.Handler = allInOneRouter{}
