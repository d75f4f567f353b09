package main

import (
	"context"
	"errors"
	"log"
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
	"f2c/internal/topology"
	"f2c/internal/transport/tcpnet"
)

// runCloudTCP serves the cloud's message plane over the tcpnet framed
// transport. The open-data API stays HTTP (it is a public REST
// surface, not node-to-node traffic) on its own listener when
// requested.
func runCloudTCP(spec topology.NodeSpec, opts core.Options, listen, opendataListen string) error {
	id := spec.ID
	node, err := cloud.New(core.CloudConfig(id, opts.Member(spec, nil, nil)))
	if err != nil {
		return err
	}
	srv, err := tcpnet.NewServer(id, listen, node, tcpnet.ServerOptions{Registry: opts.Registry})
	if err != nil {
		return err
	}
	var web *http.Server
	if opendataListen != "" {
		mux := http.NewServeMux()
		mux.Handle("/opendata/", node.OpenDataHandler())
		web = &http.Server{Addr: opendataListen, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := web.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("open-data listener: %v", err)
			}
		}()
	}
	log.Printf("cloud node %s serving tcpnet on %s", id, srv.Addr())
	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if web != nil {
		_ = web.Shutdown(ctx)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return node.Close()
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
		return errNoParentAddr
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
	srv, err := tcpnet.NewServer(spec.ID, listen, node, tcpnet.ServerOptions{Registry: reg})
	if err != nil {
		return err
	}
	log.Printf("%s node %s serving tcpnet on %s, parent %s", spec.Layer, spec.ID, srv.Addr(), spec.Parent)
	waitSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Close(); err != nil {
		return err
	}
	err = node.Close(ctx)
	_ = tr.Close()
	return err
}

var errNoParentAddr = errors.New("tcp transport needs -parent-addr or -cluster")

// waitSignal blocks until SIGINT/SIGTERM.
func waitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, shutting down", s)
}
