package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"f2c/internal/cloud"
	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

// liveMember is one hosted node: its tcpnet server, its private
// metrics registry, and (fog layers; nil for the cloud) its client
// transport and fognode.
type liveMember struct {
	id  string
	reg *metrics.Registry
	srv *tcpnet.Server
	tr  *tcpnet.Transport
	fog *fognode.Node
}

// liveCity is a hierarchy hosted over loopback sockets: the cloud
// first, then fog layer 2, then fog layer 1.
type liveCity struct {
	cloud   *cloud.Node
	members []*liveMember
	cluster config.Cluster
}

// hostLive hosts the deployment's complete hierarchy in this process
// with every node behind its own tcpnet server on an ephemeral port of
// host — real sockets, real frames, zero-config. Each node is built
// from the same core.Options.Member projection as an f2cd daemon and
// gets a private metrics registry and transport, exactly as a
// multi-process deployment would, so per-node OpMetrics scrapes are
// meaningful. The caller owns the returned city and must Close it.
func hostLive(dep config.Deployment, host string) (*liveCity, error) {
	if err := dep.RefuseIgnored("citysim -live", false); err != nil {
		return nil, err
	}
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		return nil, err
	}
	topo := opts.Topology
	c := &liveCity{cluster: config.Cluster{Nodes: make(map[string]string)}}
	serve := func(m *liveMember, h transport.Handler) error {
		srv, err := tcpnet.NewServer(m.id, host+":0", h, tcpnet.ServerOptions{Registry: m.reg})
		if err != nil {
			return err
		}
		m.srv = srv
		c.members = append(c.members, m)
		c.cluster.Nodes[m.id] = srv.Addr()
		return nil
	}

	// The cloud first: the fog layers dial upward.
	cm := &liveMember{id: core.CloudID, reg: metrics.NewRegistry()}
	opts.Registry = cm.reg
	if c.cloud, err = cloud.New(core.CloudConfig(core.CloudID, opts.Member(topo.Cloud(), nil, nil))); err != nil {
		return nil, err
	}
	if err := serve(cm, c.cloud); err != nil {
		_ = c.cloud.Close()
		return nil, err
	}

	subs := dep.StandingQueries()
	for _, spec := range append(topo.Fog2Nodes(), topo.Fog1Nodes()...) {
		m := &liveMember{id: spec.ID, reg: metrics.NewRegistry()}
		m.tr = tcpnet.New(tcpnet.Options{Registry: m.reg})
		opts.Registry = m.reg
		m.fog, err = fognode.New(core.FogConfig(spec, opts.Member(spec, m.tr, core.Siblings(topo, spec))))
		if err == nil && spec.Layer == topology.LayerFog1 {
			// Standing continuous queries land before the node serves
			// its first batch, like f2cd's boot-time registration.
			for _, sub := range subs {
				if err = m.fog.Subscribe(sub); err != nil {
					err = fmt.Errorf("subscribe %s on %s: %w", sub.ID, spec.ID, err)
					break
				}
			}
		}
		if err == nil {
			err = serve(m, m.fog)
		}
		if err != nil {
			if m.fog != nil {
				m.fog.Discard()
			}
			_ = m.tr.Close()
			c.Close()
			return nil, err
		}
	}

	// Every address is known now: wire each fog node's peers (parent,
	// siblings, cloud — relays and federated queries need them all)
	// and start the background flushers.
	for _, m := range c.members {
		if m.tr == nil {
			continue
		}
		for id, addr := range c.cluster.Nodes {
			if id != m.id {
				m.tr.AddPeer(id, addr)
			}
		}
	}
	for _, m := range c.members {
		if m.fog != nil {
			m.fog.Start()
		}
	}
	return c, nil
}

// Close shuts the city down in reverse order: fog1 first (they flush
// into fog2), the cloud last.
func (c *liveCity) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var errs []error
	for i := len(c.members) - 1; i >= 0; i-- {
		m := c.members[i]
		errs = append(errs, m.srv.Close())
		if m.fog != nil {
			errs = append(errs, m.fog.Close(ctx), m.tr.Close())
		}
	}
	errs = append(errs, c.cloud.Close())
	return errors.Join(errs...)
}

// runLive hosts the city, writes its cluster document (node id ->
// tcpnet address) so f2cload and f2cctl can drive it, and
// serves until SIGINT/SIGTERM.
func runLive(dep config.Deployment, host, clusterOut string) error {
	c, err := hostLive(dep, host)
	if err != nil {
		return err
	}
	if clusterOut != "" {
		if err := c.cluster.Save(clusterOut); err != nil {
			_ = c.Close()
			return err
		}
		log.Printf("cluster document written to %s", clusterOut)
	}
	log.Printf("live city %s ready: %d nodes over tcpnet, cloud at %s",
		dep.City, len(c.members), c.cluster.Nodes[core.CloudID])

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, shutting down live city", s)
	return c.Close()
}
