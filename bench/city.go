package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sensor"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
	"f2c/internal/wal"
)

// The hosted hierarchy: 2 districts x 2 sections = 4 fog1 / 2 fog2 /
// 1 cloud, every node behind its own tcpnet server on a loopback port.
const (
	cityName     = "bench"
	districts    = 2
	sections     = 2
	fog1Period   = 250 * time.Millisecond
	fog2Period   = 500 * time.Millisecond
	fog1Retain   = time.Hour
	fog2Retain   = 24 * time.Hour
	edgeHop      = "tcpnet.edge_fog1.send"
	fog1Hop      = "tcpnet.fog1_fog2.send"
	fog2Hop      = "tcpnet.fog2_cloud.send"
	layerFog1    = "fognode.fog1"
	layerFog2    = "fognode.fog2"
	layerCloud   = "cloud"
	clientName   = "bench/client"
	listenHost   = "127.0.0.1"
	closeTimeout = 15 * time.Second
	// memtableBytes caps every segment memtable of a durable city at
	// 1 MiB, so each node flushes several times per window. Under the
	// engine's 4 MiB default a flush and its compaction fall into some
	// windows and not others, and cpu_us_per_reading spread 25 % over
	// identical runs.
	memtableBytes = 1 << 20
)

// profile selects what the city's nodes run on.
type profile struct {
	// durable puts a wal.Config delivery journal and a segment.Options
	// store under every node and config.OverloadOptions(0) admission
	// on every handler path — the production profile. Off: RAM stores,
	// no journal, no admission.
	durable bool
	// subs registers a standing threshold subscription for each named
	// type on every fog1 node, so cq.Observe runs on their ingest
	// path. The threshold sits above the type's value range and never
	// fires: tcpnet has no wire code for transport.KindAlertPush at
	// this commit, so a fired alert (or any window subscription, which
	// fires at every window close) fails each flush that carries it
	// with "unsupported message kind" and is requeued for ever.
	subs []string
}

// member is one hosted fog node with its server and upward transport.
type member struct {
	id   string
	node *fognode.Node
	srv  *tcpnet.Server
	tr   *tcpnet.Transport
	reg  *metrics.Registry

	// Traced runs only: the tracer, the node's flush span name, and
	// the running flush span its sends hang under.
	tracer    *tracer
	flushSpan string
	current   atomic.Uint64
}

func (m *member) counter(name string) int64 { return m.reg.Counter(m.id + "." + name).Value() }

// city is the whole hierarchy plus the one client transport the load
// generators and the query client share.
type city struct {
	clock    *offsetClock
	topo     *topology.Topology
	cloud    *cloud.Node
	cloudSrv *tcpnet.Server
	cloudReg *metrics.Registry
	fog2     []*member
	fog1     []*member
	dir      string // data directory of a durable city, "" otherwise
	subs     int    // standing subscriptions registered on the fog1 nodes

	clientTCP *tcpnet.Transport
	// client is what load and queries send through: clientTCP, or its
	// traced wrapper.
	client       transport.Transport
	tracer       *tracer
	currentQuery atomic.Uint64
}

// buildCity hosts the hierarchy the way cmd/citysim's live mode does:
// core.CloudConfig / core.FogConfig over tcpnet servers, codec zip,
// dedup and quality on at fog1. Nothing is started: the benchmark
// drives every flush itself.
func buildCity(p profile, clock *offsetClock, dataDir string, tr *tracer) (c *city, err error) {
	ds := make([]topology.District, districts)
	for i := range ds {
		ds[i] = topology.District{Name: fmt.Sprintf("d%02d", i+1), Sections: sections}
	}
	topo, err := topology.New(cityName, ds)
	if err != nil {
		return nil, err
	}
	c = &city{clock: clock, topo: topo, tracer: tr}
	if p.durable {
		c.dir = dataDir
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	durability := func(id string) *wal.Config {
		if !p.durable {
			return nil
		}
		return &wal.Config{Dir: filepath.Join(dataDir, id)}
	}
	storage := func(id string) *segment.Options {
		if !p.durable {
			return nil
		}
		return &segment.Options{Dir: filepath.Join(dataDir, id, "store"), MemtableBytes: memtableBytes}
	}
	overload := func() *sched.Options {
		if !p.durable {
			return nil
		}
		so := config.OverloadOptions(0)
		return &so
	}
	serve := func(id, layer string, h transport.Handler, reg *metrics.Registry) (*tcpnet.Server, error) {
		if tr != nil {
			h = newTracedHandler(h, tr, layer)
		}
		return tcpnet.NewServer(id, listenHost+":0", h, tcpnet.ServerOptions{Registry: reg})
	}

	c.cloudReg = metrics.NewRegistry()
	c.cloud, err = cloud.New(core.CloudConfig(core.CloudID, core.MemberOptions{
		City: cityName, Clock: clock, Registry: c.cloudReg, Codec: aggregate.CodecZip,
		Durability: durability(core.CloudID), Storage: storage(core.CloudID), Overload: overload(),
	}))
	if err != nil {
		return c, err
	}
	if c.cloudSrv, err = serve(core.CloudID, layerCloud, c.cloud, c.cloudReg); err != nil {
		return c, err
	}
	addrs := map[string]string{core.CloudID: c.cloudSrv.Addr()}

	buildFog := func(spec topology.NodeSpec, layer, hop string, flush, retain time.Duration, siblings []string) (*member, error) {
		m := &member{id: spec.ID, reg: metrics.NewRegistry(), tracer: tr, flushSpan: layer + ".flush"}
		m.tr = tcpnet.New(tcpnet.Options{Registry: m.reg})
		var up transport.Transport = m.tr
		if tr != nil {
			up = &tracedTransport{inner: m.tr, t: tr, batchSpan: hop, otherSpan: hop + "_other", current: &m.current}
		}
		node, err := fognode.New(core.FogConfig(spec, core.MemberOptions{
			City: cityName, Clock: clock, Transport: up,
			Retention: retain, FlushInterval: flush, Codec: aggregate.CodecZip,
			Dedup: true, Quality: true, Registry: m.reg, Siblings: siblings,
			Durability: durability(spec.ID), Storage: storage(spec.ID), Overload: overload(),
		}))
		if err != nil {
			_ = m.tr.Close()
			return nil, err
		}
		m.node = node
		if m.srv, err = serve(spec.ID, layer, node, m.reg); err != nil {
			_ = node.Close(context.Background())
			_ = m.tr.Close()
			return nil, err
		}
		addrs[spec.ID] = m.srv.Addr()
		return m, nil
	}
	fog2IDs := make([]string, 0, districts)
	for _, spec := range topo.Fog2Nodes() {
		fog2IDs = append(fog2IDs, spec.ID)
	}
	for _, spec := range topo.Fog2Nodes() {
		var sibs []string
		for _, id := range fog2IDs {
			if id != spec.ID {
				sibs = append(sibs, id)
			}
		}
		m, err := buildFog(spec, layerFog2, fog2Hop, fog2Period, fog2Retain, sibs)
		if err != nil {
			return c, err
		}
		c.fog2 = append(c.fog2, m)
	}
	for _, spec := range topo.Fog1Nodes() {
		m, err := buildFog(spec, layerFog1, fog1Hop, fog1Period, fog1Retain, topo.Neighbors(spec.ID))
		if err != nil {
			return c, err
		}
		for _, typ := range p.subs {
			sub := cq.Subscription{ID: "thr-" + typ, TypeName: typ, Kind: cq.KindThreshold, Window: time.Second,
				Predicate: cq.PredAbove, Threshold: sensor.SpecFor(typ).Max + 1}
			if err := m.node.Subscribe(sub); err != nil {
				return c, fmt.Errorf("subscribe %s on %s: %w", sub.ID, spec.ID, err)
			}
			c.subs++
		}
		c.fog1 = append(c.fog1, m)
	}

	c.clientTCP = tcpnet.New(tcpnet.Options{})
	c.client = c.clientTCP
	if tr != nil {
		c.client = &tracedTransport{inner: c.clientTCP, t: tr, batchSpan: edgeHop, otherSpan: edgeHop + "_other", current: &c.currentQuery, rootBatch: true}
	}
	for _, m := range c.fogs() {
		for id, addr := range addrs {
			if id != m.id {
				m.tr.AddPeer(id, addr)
			}
		}
	}
	for id, addr := range addrs {
		c.clientTCP.AddPeer(id, addr)
	}
	return c, nil
}

// fogs lists every fog node, fog2 first.
func (c *city) fogs() []*member { return append(append([]*member(nil), c.fog2...), c.fog1...) }

// flushWave flushes every fog1 node, then every fog2 node.
func (c *city) flushWave() error {
	var errs []error
	for _, m := range c.fog1 {
		errs = append(errs, m.flush())
	}
	for _, m := range c.fog2 {
		errs = append(errs, m.flush())
	}
	return errors.Join(errs...)
}

// keptAtFog1 sums what the acquisition layer saw, what survived
// redundant-data elimination, and what quality then rejected.
func (c *city) keptAtFog1() (in, kept, rejected int64) {
	for _, m := range c.fog1 {
		i, k := m.node.DedupStats()
		in += i
		kept += k
		rejected += m.counter("ingest.rejected")
	}
	return in, kept, rejected
}

// drain runs flush waves until the cloud archive holds every reading
// fog1 accepted, and reports whether it got there.
func (c *city) drain() bool {
	for wave := 0; wave < 40; wave++ {
		_ = c.flushWave()
		if _, kept, rejected := c.keptAtFog1(); c.cloud.Archive().Stats().Readings >= kept-rejected {
			return true
		}
	}
	return false
}

// close shuts the city down fog1 first (they flush into fog2), the
// cloud last, and removes a durable city's data directory.
func (c *city) close() {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	fogs := c.fogs()
	for i := len(fogs) - 1; i >= 0; i-- {
		m := fogs[i]
		_ = m.srv.Close()
		_ = m.node.Close(ctx)
		_ = m.tr.Close()
	}
	if c.clientTCP != nil {
		_ = c.clientTCP.Close()
	}
	if c.cloudSrv != nil {
		_ = c.cloudSrv.Close()
	}
	if c.cloud != nil {
		_ = c.cloud.Close()
	}
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}

// typeOrder is the catalog order the workloads draw sensor types in:
// the first eight span all five Sentilo categories (so the paper's
// per-category redundancy shares all take part), the rest follow.
// Position p is ingested by fog1 node (p/2) mod 4, so node 0 owns
// positions 0-1 and its district sibling, node 1, positions 2-3.
var typeOrder = []string{
	"electricity_meter", "noise_level", "traffic", "container_glass",
	"parking_spot", "air_quality", "network_analyzer", "weather",
	"gas_meter", "temperature", "noise_peak", "container_paper",
	"bicycle_flow", "people_flow", "solar_thermal_installation", "container_organic",
}

// ownerOf maps a typeOrder position to its fog1 node index.
func ownerOf(pos int) int { return (pos / 2) % (districts * sections) }

func catalogType(name string) model.SensorType {
	st, err := model.TypeByName(name)
	if err != nil {
		panic(err) // typeOrder is a compile-time constant of catalog names
	}
	return st
}
