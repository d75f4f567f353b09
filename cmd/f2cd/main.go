// Command f2cd runs one F2C node as a network daemon, allowing a real
// multi-process hierarchy to be assembled on any set of hosts. Nodes
// talk to each other over tcpnet, the persistent-connection framed
// transport, and only over it; addresses are host:port, and a -cluster
// JSON document (see internal/config.Cluster) wires every peer at once:
//
//	# cloud layer, with its open-data REST API on an HTTP port
//	f2cd -id cloud -layer cloud -listen :9000 -opendata-listen :8080 -data-dir /var/lib/f2c
//
//	# a district (fog layer 2) node reporting to the cloud
//	f2cd -id fog2/d01 -layer fog2 -parent cloud \
//	     -parent-addr localhost:9000 -listen :9001 -data-dir /var/lib/f2c
//
//	# a section (fog layer 1) node reporting to the district
//	f2cd -id fog1/d01-s01 -layer fog1 -parent fog2/d01 \
//	     -parent-addr localhost:9001 -listen :9002 -data-dir /var/lib/f2c
//
// Sensors send batch envelopes to the node's listener; f2cctl inspects
// and controls running nodes. -all-in-one hosts the document's whole
// city behind one tcpnet port instead (see runAllInOne).
//
// The flags say what belongs to this process — which node it is and
// where it listens, dials and keeps its files. What the node does
// (codec, flush and retention periods, dedup, quality, ingest rate
// cap, buffer bound, degrade-to-summary, standing subscriptions) is the deployment document's (-config, default
// config.Barcelona()), shared by every daemon of the city. Admission
// control is always on, and -data-dir always means journal and
// segment store together: the profile the benchmark's durable
// workloads measure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "f2cd:", err)
		os.Exit(1)
	}
}

// daemon is the parsed command line: everything that is this
// process's own.
type daemon struct {
	id, layer, parent string
	parentAddr        string
	clusterPath       string
	listen            string
	opendataListen    string
	dataDir           string
	cfgPath           string
	allInOne          bool
}

func parseFlags(args []string) (daemon, error) {
	var d daemon
	fs := flag.NewFlagSet("f2cd", flag.ContinueOnError)
	fs.StringVar(&d.id, "id", "", "node id (e.g. fog1/d01-s01 or cloud)")
	fs.StringVar(&d.layer, "layer", "", "node layer: fog1|fog2|cloud")
	fs.StringVar(&d.parent, "parent", "", "parent node id (fog layers)")
	fs.StringVar(&d.parentAddr, "parent-addr", "", "parent host:port (fog layers)")
	fs.StringVar(&d.clusterPath, "cluster", "", "cluster JSON mapping node ids to host:port addresses (wires parent and sibling peers)")
	fs.StringVar(&d.listen, "listen", ":8080", "tcpnet listen address")
	fs.StringVar(&d.opendataListen, "opendata-listen", "", "HTTP address for the cloud's open-data API (cloud and -all-in-one; empty = no open-data endpoint)")
	fs.StringVar(&d.dataDir, "data-dir", "", "durability directory: the node keeps its journal under <data-dir>/<id> and its segment store under <data-dir>/<id>/store, and recovers both on restart (overrides the document's dataDir; empty with no dataDir = in-memory)")
	fs.BoolVar(&d.allInOne, "all-in-one", false, "run the document's whole hierarchy in this process behind one tcpnet listener, routing each message to the node it addresses (demo mode)")
	fs.StringVar(&d.cfgPath, "config", "", "deployment JSON declaring the city and every node's profile (default: Barcelona)")
	return d, fs.Parse(args)
}

// deployment loads the document the daemon runs under, with the
// process's own data directory in place of the document's.
func (d daemon) deployment() (config.Deployment, error) {
	dep := config.Barcelona()
	if d.cfgPath != "" {
		var err error
		if dep, err = config.Load(d.cfgPath); err != nil {
			return dep, err
		}
	}
	if d.dataDir != "" {
		dep.DataDir = d.dataDir
	}
	return dep, nil
}

// spec places the process's node in the hierarchy from its identity
// flags.
func (d daemon) spec() (topology.NodeSpec, error) {
	spec := topology.NodeSpec{ID: d.id, Parent: d.parent, Name: d.id}
	if d.id == "" {
		return spec, errors.New("-id is required")
	}
	switch d.layer {
	case "cloud":
		spec.Layer, spec.Parent = topology.LayerCloud, ""
	case "fog1":
		spec.Layer = topology.LayerFog1
	case "fog2":
		spec.Layer = topology.LayerFog2
	default:
		return spec, fmt.Errorf("unknown layer %q (want fog1|fog2|cloud)", d.layer)
	}
	if spec.Layer != topology.LayerCloud && d.parent == "" {
		return spec, errors.New("fog layers need -parent")
	}
	return spec, nil
}

// node resolves the flags and the document into the one node this
// process hosts: its place in the hierarchy, the deployment options
// core.Options.Member projects onto it, and (fog layer 1) the
// document's standing subscriptions.
func (d daemon) node() (topology.NodeSpec, core.Options, []cq.Subscription, error) {
	spec, err := d.spec()
	if err != nil {
		return spec, core.Options{}, nil, err
	}
	dep, err := d.deployment()
	if err != nil {
		return spec, core.Options{}, nil, err
	}
	if err := dep.RefuseIgnored("f2cd", false); err != nil {
		return spec, core.Options{}, nil, err
	}
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		return spec, core.Options{}, nil, err
	}
	// One registry per process: the node, its transport and its
	// listener export through the same metrics scrape.
	opts.Registry = metrics.NewRegistry()
	var subs []cq.Subscription
	if spec.Layer == topology.LayerFog1 {
		subs = dep.StandingQueries()
	}
	return spec, opts, subs, nil
}

func run(args []string) error {
	d, err := parseFlags(args)
	if err != nil {
		return err
	}
	if d.allInOne {
		dep, err := d.deployment()
		if err != nil {
			return err
		}
		return runAllInOne(dep, d.listen, d.opendataListen)
	}
	spec, opts, subs, err := d.node()
	if err != nil {
		return err
	}
	if spec.Layer == topology.LayerCloud {
		return runCloudTCP(spec, opts, d.listen, d.opendataListen)
	}
	var cluster *config.Cluster
	if d.clusterPath != "" {
		c, err := config.LoadCluster(d.clusterPath)
		if err != nil {
			return err
		}
		cluster = &c
	}
	return runFogTCP(spec, opts, d.parentAddr, d.listen, cluster, subs)
}

// bootSubscriptions registers a daemon's standing continuous queries
// before it starts serving, so the first ingested batch is already
// evaluated. On a durable node each registration is journaled and
// survives restarts on its own; re-registering at the next boot is an
// idempotent no-op.
func bootSubscriptions(node *fognode.Node, subs []cq.Subscription) error {
	for _, sub := range subs {
		if err := node.Subscribe(sub); err != nil {
			return fmt.Errorf("subscribe %s: %w", sub.ID, err)
		}
	}
	if len(subs) > 0 {
		log.Printf("registered %d standing subscription(s)", len(subs))
	}
	return nil
}
