package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/sched"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// TestProjectionEquivalence pins the one-builder contract for the two
// storage profiles (in-memory; durable = journal + segment store): the
// node configuration a host derives through Options.Member from the
// options as written (no defaults applied, its own transport, registry
// and clock — what f2cd and citysim -live do) equals the one NewSystem
// builds its node from, field for field. It is what lets the daemons
// stop carrying builders of their own. The durable profile runs twice:
// with the segment store left at the engine defaults, and with its
// memtable cap tuned, which every node's store must then carry.
func TestProjectionEquivalence(t *testing.T) {
	overload := sched.DefaultOptions()
	for _, p := range []struct {
		name     string
		durable  bool
		memtable int64
	}{
		{"ram", false, 1 << 16},
		{"durable", true, 0},
		{"durable+segments", true, 1 << 16},
	} {
		t.Run(p.name, func(t *testing.T) {
			topo, err := topology.New("Projville", []topology.District{{Name: "A", Sections: 3}, {Name: "B", Sections: 3}})
			if err != nil {
				t.Fatal(err)
			}
			written := Options{
				Topology: topo, Dedup: true, Quality: true, Codec: aggregate.CodecGzip,
				Fog1FlushInterval: 7 * time.Second, Fog2Retention: 36 * time.Hour,
				Seed: 5, FlushWorkers: 2,
				MaxPendingReadings: 1000, DegradeToSummary: true, AdaptiveFlush: true,
				RetryBase: time.Second, RetryMax: time.Minute, FailoverAfter: 2,
				Overload: &overload, CloudRetention: 48 * time.Hour,
				SnapshotEvery: 17, MemtableBytes: p.memtable,
			}
			if p.durable {
				written.DataDir = t.TempDir()
			}
			sysOpts := written
			sysOpts.Clock = sim.NewVirtualClock(t0)
			sys, err := NewSystem(sysOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close(context.Background())

			host := written
			host.Registry = metrics.NewRegistry()
			hostNet := transport.NewSimNetwork()

			wantCloud := CloudConfig(CloudID, sys.opts.Member(topo.Cloud(), sys.net, nil))
			gotCloud := CloudConfig(CloudID, host.Member(topo.Cloud(), nil, nil))
			wantCloud.Clock, wantCloud.Registry, gotCloud.Clock, gotCloud.Registry = nil, nil, nil, nil
			if !reflect.DeepEqual(gotCloud, wantCloud) {
				t.Errorf("cloud: host derives\n%+v\nNewSystem builds\n%+v", gotCloud, wantCloud)
			}
			checkDirs(t, written, CloudID, wantCloud.Durability, wantCloud.Storage)

			for _, spec := range append(topo.Fog2Nodes(), topo.Fog1Nodes()...) {
				want := FogConfig(spec, sys.opts.Member(spec, sys.net, Siblings(sys.topo, spec)))
				got := FogConfig(spec, host.Member(spec, hostNet, Siblings(topo, spec)))
				want.Clock, want.Registry, want.Transport, got.Clock, got.Registry, got.Transport = nil, nil, nil, nil, nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: host derives\n%+v\nNewSystem builds\n%+v", spec.ID, got, want)
				}
				fog1 := spec.Layer == topology.LayerFog1
				if others := map[bool]int{true: 2, false: 1}[fog1]; len(want.Siblings) != others {
					t.Errorf("%s: siblings %v, want the %d other nodes of its tier", spec.ID, want.Siblings, others)
				}
				if want.Dedup != fog1 || (want.FlushInterval == 7*time.Second) != fog1 || (want.Retention == 36*time.Hour) == fog1 {
					t.Errorf("%s: layer picks dedup %v flush %v retention %v", spec.ID, want.Dedup, want.FlushInterval, want.Retention)
				}
				checkDirs(t, written, spec.ID, want.Durability, want.Storage)
			}
		})
	}
}

// checkDirs asserts the node directory layout — <dataDir>/<id> for the
// journal, <dataDir>/<id>/store for the segment store, neither on a
// RAM city — both in the projection and on disk, where the nodes
// NewSystem built must have left exactly that profile, plus the
// segment store's memtable cap as written.
func checkDirs(t *testing.T, o Options, id string, journal *wal.Config, store *segment.Options) {
	t.Helper()
	var journalDir, storeDir, wantJournal, wantStore string
	if journal != nil {
		journalDir = journal.Dir
	}
	if store != nil {
		storeDir = store.Dir
	}
	if o.DataDir != "" {
		wantJournal = filepath.Join(o.DataDir, id)
		wantStore = filepath.Join(o.DataDir, id, "store")
	}
	if journalDir != wantJournal || storeDir != wantStore {
		t.Errorf("%s: journal dir %q store dir %q, want %q and %q", id, journalDir, storeDir, wantJournal, wantStore)
	}
	if store != nil && store.MemtableBytes != o.MemtableBytes {
		t.Errorf("%s: segment store memtable cap %d, want %d", id, store.MemtableBytes, o.MemtableBytes)
	}
	if wantJournal == "" {
		return
	}
	if logs, _ := filepath.Glob(filepath.Join(wantJournal, "wal-*")); len(logs) == 0 {
		t.Errorf("%s: NewSystem left no journal under %s", id, wantJournal)
	}
	if _, err := os.Stat(wantStore); err != nil {
		t.Errorf("%s: NewSystem left no segment store: %v", id, err)
	}
}
