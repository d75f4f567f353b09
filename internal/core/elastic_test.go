package core

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
)

// elasticBatch builds a one-reading edge batch of the given type with
// a value that doubles as its identity for exactly-once accounting.
func elasticBatch(typ string, val float64, at time.Time) *model.Batch {
	return &model.Batch{
		NodeID: "edge", TypeName: typ, Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{
			SensorID: typ + "-sensor", TypeName: typ, Category: model.CategoryUrban,
			Time: at, Value: val, Unit: "u",
		}},
	}
}

// cloudValues reads a type's archived readings as a sorted value
// list — the exactly-once ledger the elastic tests assert against.
func cloudValues(s *System, typ string, from, to time.Time) []float64 {
	var vals []float64
	for _, r := range s.Cloud().Historical(typ, from, to) {
		vals = append(vals, r.Value)
	}
	sort.Float64s(vals)
	return vals
}

var elasticTypes = []string{
	"traffic.flow", "air.no2", "noise.leq", "waste.fill",
	"parking.occupancy", "water.ph", "lighting.lux", "transit.headway",
}

func TestElasticIngestRoutesToRingOwner(t *testing.T) {
	s := newSystem(t, Options{ElasticOwnership: true, Seed: 7})
	district := s.Fog2IDs()[0]
	sections := s.Topology().Children(district)
	at := t0

	// Spray every type across every section; each type must
	// consolidate on its single ring owner.
	val := 0.0
	for round, typ := range elasticTypes {
		for i, sec := range sections {
			val++
			if err := s.IngestAt(sec, elasticBatch(typ, val, at.Add(time.Duration(round*10+i)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, typ := range elasticTypes {
		owner, ok := s.OwnerOf(district, typ)
		if !ok {
			t.Fatalf("no owner for %s", typ)
		}
		own, _ := s.Fog1(owner)
		if _, found := own.Latest(typ + "-sensor"); !found {
			t.Errorf("%s: owner %s never saw the type's sensor", typ, owner)
		}
		for _, sec := range sections {
			if sec == owner {
				continue
			}
			n, _ := s.Fog1(sec)
			if _, found := n.Latest(typ + "-sensor"); found {
				t.Errorf("%s: non-owner %s holds the type (owner %s)", typ, sec, owner)
			}
		}
	}
	if got := s.SeenTypes(district); len(got) != len(elasticTypes) {
		t.Errorf("seen types = %v, want %d types", got, len(elasticTypes))
	}

	// The full universe still drains to the cloud exactly once.
	if err := s.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, typ := range elasticTypes {
		total += len(cloudValues(s, typ, at.Add(-time.Hour), at.Add(time.Hour)))
	}
	if want := len(elasticTypes) * len(sections); total != want {
		t.Errorf("cloud readings = %d, want %d", total, want)
	}
}

func TestElasticScaleOutMigratesOnlyReassignedTypes(t *testing.T) {
	s := newSystem(t, Options{ElasticOwnership: true, Seed: 7})
	ctx := context.Background()
	district := s.Fog2IDs()[0]
	at := t0

	val := 0.0
	ingestAll := func() {
		for i, typ := range elasticTypes {
			val++
			sec := s.Topology().Children(district)[i%len(s.Topology().Children(district))]
			if err := s.IngestAt(sec, elasticBatch(typ, val, at.Add(time.Duration(val)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestAll()

	before := make(map[string]string)
	for _, typ := range elasticTypes {
		before[typ], _ = s.OwnerOf(district, typ)
	}
	f1Before := len(s.Fog1IDs())

	id, err := s.AddFog1Node(ctx, district)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "fog1/") {
		t.Fatalf("minted id = %q", id)
	}
	if got := len(s.Fog1IDs()); got != f1Before+1 {
		t.Fatalf("fog1 roster = %d, want %d", got, f1Before+1)
	}
	if _, ok := s.Topology().Node(id); !ok {
		t.Fatal("new node missing from topology")
	}

	// Consistent hashing: every type either kept its owner or moved to
	// the new node — never between two old nodes.
	moved := 0
	for _, typ := range elasticTypes {
		after, _ := s.OwnerOf(district, typ)
		if after != before[typ] {
			if after != id {
				t.Errorf("%s moved %s -> %s, not to the joining node", typ, before[typ], after)
			}
			moved++
		}
	}
	newNode, _ := s.Fog1(id)
	if moved > 0 && newNode.MigratedInTransfers() == 0 {
		t.Errorf("%d types reassigned but the new node absorbed no transfers", moved)
	}

	// Ingest keeps flowing after the join, and everything — pre-join
	// state migrated in, post-join arrivals — lands in the cloud
	// exactly once.
	ingestAll()
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, typ := range elasticTypes {
		vals := cloudValues(s, typ, at.Add(-time.Hour), at.Add(time.Hour))
		total += len(vals)
		for i := 1; i < len(vals); i++ {
			if vals[i] == vals[i-1] {
				t.Errorf("%s: duplicate value %v at cloud", typ, vals[i])
			}
		}
	}
	if want := 2 * len(elasticTypes); total != want {
		t.Errorf("cloud readings = %d, want %d", total, want)
	}
}

func TestElasticScaleInEvacuatesOwnedState(t *testing.T) {
	s := newSystem(t, Options{ElasticOwnership: true, Seed: 7})
	ctx := context.Background()
	district := s.Fog2IDs()[0]
	at := t0

	val := 0.0
	for _, typ := range elasticTypes {
		val++
		if err := s.IngestAt(s.Topology().Children(district)[0], elasticBatch(typ, val, at.Add(time.Duration(val)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}

	// Remove a node that owns at least one type, without flushing
	// first: its buffered state must evacuate, not drop.
	var victim string
	for _, typ := range elasticTypes {
		if owner, ok := s.OwnerOf(district, typ); ok {
			victim = owner
			break
		}
	}
	if err := s.RemoveFog1Node(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Fog1(victim); ok {
		t.Fatal("removed node still in the roster")
	}
	if _, ok := s.Topology().Node(victim); ok {
		t.Fatal("removed node still in the topology")
	}
	for _, id := range s.Fog1IDs() {
		if id == victim {
			t.Fatal("removed node still listed")
		}
	}
	for _, typ := range elasticTypes {
		if owner, _ := s.OwnerOf(district, typ); owner == victim {
			t.Errorf("%s still owned by the removed node", typ)
		}
	}

	// Every pre-removal reading survives to the cloud exactly once.
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, typ := range elasticTypes {
		total += len(cloudValues(s, typ, at.Add(-time.Hour), at.Add(time.Hour)))
	}
	if total != len(elasticTypes) {
		t.Errorf("cloud readings = %d, want %d", total, len(elasticTypes))
	}
	if dup := s.Cloud().DuplicateBatches(); dup != 0 {
		t.Errorf("cloud deduped %d batches; scale-in should not re-deliver", dup)
	}

	// Ingest addressed at the departed section still routes (the ring
	// knows the survivors), so edge producers need no reconfiguration
	// until the topology tier catches up... unless the section itself
	// is gone from the topology — then the caller gets a clean error.
	if err := s.IngestAt(victim, elasticBatch("traffic.flow", 999, at.Add(time.Hour))); err == nil {
		t.Error("ingest at a removed section should fail")
	}
}

func TestElasticScaleGuards(t *testing.T) {
	ctx := context.Background()

	// Elastic off: scale APIs refuse.
	plain := newSystem(t, Options{})
	if _, err := plain.AddFog1Node(ctx, plain.Fog2IDs()[0]); err == nil {
		t.Error("AddFog1Node should require elastic ownership")
	}
	if err := plain.RemoveFog1Node(ctx, plain.Fog1IDs()[0]); err == nil {
		t.Error("RemoveFog1Node should require elastic ownership")
	}
	if _, ok := plain.OwnerOf(plain.Fog2IDs()[0], "traffic.flow"); ok {
		t.Error("OwnerOf should report false with elastic off")
	}

	s := newSystem(t, Options{ElasticOwnership: true})
	if _, err := s.AddFog1Node(ctx, "fog2/ghost"); err == nil {
		t.Error("scale-out into an unknown district should fail")
	}
	if _, err := s.AddFog1Node(ctx, s.Fog1IDs()[0]); err == nil {
		t.Error("scale-out into a fog1 node should fail")
	}
	if err := s.RemoveFog1Node(ctx, "fog1/ghost"); err == nil {
		t.Error("scale-in of an unknown node should fail")
	}
	if err := s.RemoveFog1Node(ctx, s.Fog2IDs()[0]); err == nil {
		t.Error("scale-in of a fog2 node should fail")
	}

	// The last node of a district cannot leave.
	district := s.Fog2IDs()[1] // "South", 2 sections
	kids := s.Topology().Children(district)
	if err := s.RemoveFog1Node(ctx, kids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveFog1Node(ctx, kids[1]); err == nil {
		t.Error("removing the last node of a district should fail")
	}
}

func TestElasticMintedIDsNeverReused(t *testing.T) {
	s := newSystem(t, Options{ElasticOwnership: true})
	ctx := context.Background()
	district := s.Fog2IDs()[0]

	a, err := s.AddFog1Node(ctx, district)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveFog1Node(ctx, a); err != nil {
		t.Fatal(err)
	}
	b, err := s.AddFog1Node(ctx, district)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("minted id %q reused after removal (would resurrect its journal dir)", a)
	}
	if sectionOrdinal(b) <= sectionOrdinal(a) {
		t.Fatalf("section ordinals not monotonic: %q then %q", a, b)
	}
}

func TestElasticScaleOutUnderVirtualClockFlushes(t *testing.T) {
	// Sanity: a scaled-out system keeps working with the usual
	// simulation driver — grow two districts, spray, flush, count.
	clock := sim.NewVirtualClock(t0)
	s := newSystem(t, Options{ElasticOwnership: true, Clock: clock, Seed: 11})
	ctx := context.Background()

	for _, district := range s.Fog2IDs() {
		if _, err := s.AddFog1Node(ctx, district); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for i, typ := range elasticTypes {
		for _, district := range s.Fog2IDs() {
			kids := s.Topology().Children(district)
			sec := kids[i%len(kids)]
			n++
			if err := s.IngestAt(sec, elasticBatch(typ, float64(n), t0.Add(time.Duration(n)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Advance(time.Minute)
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, typ := range elasticTypes {
		total += len(cloudValues(s, typ, t0.Add(-time.Hour), t0.Add(time.Hour)))
	}
	if total != n {
		t.Errorf("cloud readings = %d, want %d", total, n)
	}
	// The two districts' rings are independent: the same type may have
	// different owners per district, and both must resolve.
	for _, typ := range elasticTypes {
		for _, district := range s.Fog2IDs() {
			if owner, ok := s.OwnerOf(district, typ); !ok || !strings.HasPrefix(owner, "fog1/") {
				t.Fatalf("district %s: no owner for %s", district, typ)
			}
		}
	}
}

func TestElasticBatchOwnerGateway(t *testing.T) {
	s := newSystem(t, Options{ElasticOwnership: true, Seed: 7})
	district := s.Fog2IDs()[0]
	sections := s.Topology().Children(district)

	typ := "traffic.flow"
	owner, ok := s.OwnerOf(district, typ)
	if !ok {
		t.Fatalf("no owner for %s", typ)
	}
	payload, err := protocol.EncodeBatchPayload(elasticBatch(typ, 1, t0), aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	// Addressed at any sibling, a sealed batch resolves to the same
	// ring owner a direct IngestAt would pick.
	for _, sec := range sections {
		if got := s.ElasticBatchOwner(sec, payload); got != owner {
			t.Errorf("ElasticBatchOwner(%s, %s) = %s, want %s", sec, typ, got, owner)
		}
	}
	// Garbage payloads pass through unchanged: the addressed node
	// reports the decode error, not the gateway.
	if got := s.ElasticBatchOwner(sections[0], []byte("not a batch")); got != sections[0] {
		t.Errorf("garbage payload rerouted to %s", got)
	}
	// Unknown nodes pass through too.
	if got := s.ElasticBatchOwner("fog1/nope", payload); got != "fog1/nope" {
		t.Errorf("unknown node rerouted to %s", got)
	}

	// With elastic ownership off, batches stay where they are sent.
	flat := newSystem(t, Options{Seed: 7})
	sec := flat.Topology().Children(flat.Fog2IDs()[0])[0]
	if got := flat.ElasticBatchOwner(sec, payload); got != sec {
		t.Errorf("elastic off: rerouted to %s", got)
	}
}

// SeenTypes returns the sensor types a district's ring has routed so
// far, sorted — the universe a scale event rebalances over.
func (s *System) SeenTypes(district string) []string {
	if s.elastic == nil {
		return nil
	}
	return s.elastic.seenTypes(district)
}
