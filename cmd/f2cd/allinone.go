package main

import (
	"context"
	"fmt"
	"log"
	"net/http"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/sim"
	"f2c/internal/transport"
)

// runAllInOne hosts the entire hierarchy inside one process: every
// fog node over the in-process simulated network, the cloud, and a
// single HTTP endpoint. Messages are routed by the X-F2C-To header,
// so f2cload and f2cctl work unchanged against any node, and the
// open-data API is served from the same port — a one-command demo
// city:
//
//	f2cd -all-in-one -listen :8080
//	f2cload -node http://localhost:8080 -node-id fog1/d01-s01 ...
//	f2cctl  -transport http -node http://localhost:8080 status   # routes to the cloud
//	curl http://localhost:8080/opendata/v1/categories
//
// This mode stays HTTP: one listener fronts every node, and tcpnet
// addresses a node by its socket. The city is the deployment
// document's — topology, profile, elasticOwnership (scale events need
// this host: it owns the topology, the network and the rings), and
// standing subscriptions.
func runAllInOne(dep config.Deployment, listen string) error {
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		return err
	}
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

	mux := http.NewServeMux()
	mux.Handle(transport.MessagePath, allInOneRouter{sys: sys})
	mux.Handle("/opendata/", sys.Cloud().OpenDataHandler())

	f1, f2, _ := sys.Topology().Counts()
	log.Printf("all-in-one %s (%d fog1 / %d fog2 / 1 cloud) listening on %s", opts.City, f1, f2, listen)
	return serve(listen, mux, sys.Close)
}

// allInOneRouter dispatches /f2c/v1/message requests to the addressed
// node by the X-F2C-To header; an empty or "cloud" target goes to the
// cloud node.
type allInOneRouter struct {
	sys *core.System
}

func (r allInOneRouter) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	target := req.Header.Get(transport.HeaderTo)
	if target == "" {
		target = core.CloudID
	}
	h, err := r.handlerFor(target)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	transport.NewHTTPHandler(target, h).ServeHTTP(w, req)
}

func (r allInOneRouter) handlerFor(target string) (transport.Handler, error) {
	if target == core.CloudID {
		return r.sys.Cloud(), nil
	}
	if n, ok := r.sys.Fog1(target); ok {
		// Gateway ingest must honor the ownership rings like IngestAt
		// does: a sealed batch addressed at any section lands on its
		// type's ring owner, so elastic rebalance stays transparent to
		// edge clients that keep posting to their nearest node.
		return elasticIngestHandler{sys: r.sys, id: target, node: n}, nil
	}
	if n, ok := r.sys.Fog2(target); ok {
		return n, nil
	}
	return nil, fmt.Errorf("unknown node %q", target)
}

// elasticIngestHandler fronts a hosted fog layer-1 node: edge batches
// are re-addressed to the sensor type's ring owner before dispatch,
// every other message kind passes through to the addressed node.
type elasticIngestHandler struct {
	sys  *core.System
	id   string
	node transport.Handler
}

func (h elasticIngestHandler) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	if msg.Kind == transport.KindBatch {
		if owner := h.sys.ElasticBatchOwner(h.id, msg.Payload); owner != h.id {
			if n, ok := h.sys.Fog1(owner); ok {
				msg.To = owner
				return n.Handle(ctx, msg)
			}
		}
	}
	return h.node.Handle(ctx, msg)
}

var _ http.Handler = allInOneRouter{}
