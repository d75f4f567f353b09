package main

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

// TestNodeFromFlags drives the flags -> node resolution without a
// socket: identity and path flags alone yield the production profile,
// and everything else the node does comes from the document.
func TestNodeFromFlags(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "city.json")
	dep := config.Barcelona()
	dep.Codec = "gzip"
	dep.Fog1FlushSeconds = 30
	dep.IngestRateBytes = 4096
	dep.MaxPendingReadings = 500
	dep.DegradeToSummary = true
	dep.AdaptiveFlush = true
	dep.Subscriptions = []config.SubscriptionSpec{{ID: "w1", Type: "traffic", Kind: "window", WindowSeconds: 60}}
	if err := dep.Save(doc); err != nil {
		t.Fatal(err)
	}
	fog1 := []string{"-id", "fog1/d01-s01", "-layer", "fog1", "-parent", "fog2/d01", "-parent-addr", "127.0.0.1:9001"}

	resolve := func(args ...string) (topology.NodeSpec, core.MemberOptions, int) {
		t.Helper()
		d, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		spec, opts, subs, err := d.node()
		if err != nil {
			t.Fatal(err)
		}
		return spec, opts.Member(spec, nil, nil), len(subs)
	}

	// Identity, address and -data-dir alone: journal + segment store in
	// the layout every host writes, admission on.
	spec, mo, subs := resolve(append(fog1, "-data-dir", dir)...)
	if spec.Layer != topology.LayerFog1 || spec.Parent != "fog2/d01" {
		t.Errorf("spec = %+v", spec)
	}
	if mo.Durability == nil || mo.Durability.Dir != filepath.Join(dir, "fog1/d01-s01") {
		t.Errorf("durability = %+v, want the journal under <dir>/<id>", mo.Durability)
	}
	if mo.Storage == nil || mo.Storage.Dir != filepath.Join(dir, "fog1/d01-s01", "store") {
		t.Errorf("storage = %+v, want the segment store under <dir>/<id>/store", mo.Storage)
	}
	if mo.Overload == nil || mo.Overload.Classes["ingest"].Rate != 0 {
		t.Errorf("overload = %+v, want admission on, ingest unlimited", mo.Overload)
	}
	if mo.FlushInterval != 15*time.Minute || mo.Retention != time.Hour || !mo.Dedup || !mo.Quality || subs != 0 {
		t.Errorf("default document not applied: flush %v retention %v dedup %v quality %v subs %d",
			mo.FlushInterval, mo.Retention, mo.Dedup, mo.Quality, subs)
	}
	if mo.Registry == nil {
		t.Error("the daemon must hand its node the process registry")
	}

	// No -data-dir: in-memory, admission still on.
	if _, mo, _ := resolve(fog1...); mo.Durability != nil || mo.Storage != nil || mo.Overload == nil {
		t.Errorf("RAM profile = durability %v storage %v overload %v, want nil/nil/non-nil", mo.Durability, mo.Storage, mo.Overload)
	}

	// The document's profile reaches the node, at every layer it
	// applies to.
	_, mo, subs = resolve(append(fog1, "-config", doc)...)
	if mo.Overload.Classes["ingest"].Rate != 4096 || mo.MaxPendingReadings != 500 || !mo.DegradeToSummary || !mo.Adaptive {
		t.Errorf("document overload profile lost: %+v", mo)
	}
	if mo.Codec.String() != "gzip" || mo.FlushInterval != 30*time.Second || subs != 1 {
		t.Errorf("document codec/flush/subscriptions lost: codec %v flush %v subs %d", mo.Codec, mo.FlushInterval, subs)
	}
	spec, mo, subs = resolve("-id", "fog2/d01", "-layer", "fog2", "-parent", "cloud", "-parent-addr", "x:1", "-config", doc)
	if spec.Layer != topology.LayerFog2 || mo.FlushInterval != time.Hour || mo.Retention != 24*time.Hour || subs != 0 {
		t.Errorf("fog2 = %+v flush %v retention %v subs %d", spec, mo.FlushInterval, mo.Retention, subs)
	}
	spec, mo, _ = resolve("-id", "cloud", "-layer", "cloud", "-config", doc, "-data-dir", dir)
	if spec.Layer != topology.LayerCloud || spec.Parent != "" || mo.CloudRetention != 5*365*24*time.Hour ||
		mo.Storage == nil || mo.Storage.Dir != filepath.Join(dir, "cloud", "store") {
		t.Errorf("cloud = %+v retention %v storage %+v", spec, mo.CloudRetention, mo.Storage)
	}
}

// TestDaemonMatchesSystemHost: for every node of a 2x3 city, the
// fognode / cloud configuration an f2cd process derives from its flags
// and the document equals the one a whole-city host (NewSystem,
// citysim -live) derives for the same node from the same document —
// modulo what is the process's own: the spec's display name (a daemon
// knows only its id), its relay siblings (wired by -cluster), its
// registry and transport.
func TestDaemonMatchesSystemHost(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dep := config.Barcelona()
		dep.Districts = []config.DistrictSpec{{Name: "A", Sections: 3}, {Name: "B", Sections: 3}}
		dep.MaxPendingReadings, dep.DegradeToSummary, dep.AdaptiveFlush, dep.IngestRateBytes = 800, true, true, 1<<20
		doc := filepath.Join(t.TempDir(), "city.json")
		if err := dep.Save(doc); err != nil {
			t.Fatal(err)
		}
		flags := []string{"-config", doc}
		if durable {
			dep.DataDir = t.TempDir()
			flags = append(flags, "-data-dir", dep.DataDir)
		}
		host, err := dep.Options(sim.WallClock{})
		if err != nil {
			t.Fatal(err)
		}
		topo := host.Topology
		for _, want := range append(append([]topology.NodeSpec{topo.Cloud()}, topo.Fog2Nodes()...), topo.Fog1Nodes()...) {
			args := append([]string{"-id", want.ID, "-layer", want.Layer.String(), "-parent", want.Parent}, flags...)
			d, err := parseFlags(args)
			if err != nil {
				t.Fatal(err)
			}
			spec, opts, _, err := d.node()
			if err != nil {
				t.Fatal(err)
			}
			got := opts.Member(spec, nil, nil)
			ref := host.Member(want, nil, core.Siblings(topo, want))
			got.Registry, ref.Siblings = nil, nil
			if want.Layer == topology.LayerCloud {
				if g, w := core.CloudConfig(spec.ID, got), core.CloudConfig(want.ID, ref); !reflect.DeepEqual(g, w) {
					t.Errorf("durable=%v cloud: daemon derives\n%+v\nthe city host\n%+v", durable, g, w)
				}
				continue
			}
			want.Name, want.Centroid = spec.Name, spec.Centroid
			if g, w := core.FogConfig(spec, got), core.FogConfig(want, ref); !reflect.DeepEqual(g, w) {
				t.Errorf("durable=%v %s: daemon derives\n%+v\nthe city host\n%+v", durable, want.ID, g, w)
			}
		}
	}
}
