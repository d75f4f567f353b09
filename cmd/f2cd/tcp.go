package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"f2c/internal/cloud"
	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

// runCloudTCP serves the cloud over tcpnet, and its open-data API on
// -opendata-listen when set.
func runCloudTCP(spec topology.NodeSpec, opts core.Options, listen, opendataListen string) error {
	node, err := cloud.New(core.CloudConfig(spec.ID, opts.Member(spec, nil, nil)))
	if err != nil {
		return err
	}
	return serveUntilSignal(spec.ID, listen, node, opts.Registry, opendataListen, node.OpenDataHandler(),
		func(context.Context) error { return node.Close() })
}

// runFogTCP serves a fog node over tcpnet. The parent's address comes
// from -parent-addr or the cluster document; with a cluster, every
// listed node becomes a dialable peer, so sibling relays and
// federated queries work across the deployment.
func runFogTCP(spec topology.NodeSpec, opts core.Options, parentAddr, listen string, cluster *config.Cluster, subs []cq.Subscription) error {
	reg := opts.Registry
	tr := tcpnet.New(tcpnet.Options{Registry: reg})
	if cluster != nil {
		for id, addr := range cluster.Nodes {
			tr.AddPeer(id, addr)
		}
	}
	if parentAddr != "" {
		tr.AddPeer(spec.Parent, parentAddr)
	} else if cluster == nil {
		return errors.New("fog layers need -parent-addr or -cluster")
	} else if _, err := cluster.Addr(spec.Parent); err != nil {
		return err
	}
	node, err := fognode.New(core.FogConfig(spec, opts.Member(spec, tr, nil)))
	if err != nil {
		return err
	}
	if err := bootSubscriptions(node, subs); err != nil {
		return err
	}
	node.Start()
	log.Printf("%s node %s, parent %s", spec.Layer, spec.ID, spec.Parent)
	return serveUntilSignal(spec.ID, listen, node, reg, "", nil, func(ctx context.Context) error {
		err := node.Close(ctx)
		_ = tr.Close()
		return err
	})
}

// serveUntilSignal serves h on one tcpnet listener — and the open-data
// API od on an HTTP listener when opendataListen is set, the only HTTP
// a daemon speaks — until SIGINT/SIGTERM. It then closes both listeners
// before closeNode, so the node's final flush sees no new traffic.
func serveUntilSignal(id, listen string, h transport.Handler, reg *metrics.Registry,
	opendataListen string, od http.Handler, closeNode func(context.Context) error) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	srv, err := tcpnet.NewServer(id, listen, h, tcpnet.ServerOptions{Registry: reg})
	if err != nil {
		return err
	}
	var web *http.Server
	if opendataListen != "" {
		ln, err := net.Listen("tcp", opendataListen)
		if err != nil {
			_ = srv.Close()
			return fmt.Errorf("open-data listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/opendata/", od)
		web = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := web.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("open-data listener: %v", err)
			}
		}()
		log.Printf("open data on http://%s/opendata/v1/", ln.Addr())
	}
	log.Printf("%s serving tcpnet on %s", id, srv.Addr())
	log.Printf("received %v, shutting down", <-sig)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if web != nil {
		_ = web.Shutdown(ctx)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return closeNode(ctx)
}
