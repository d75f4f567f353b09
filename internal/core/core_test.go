package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/placement"
	"f2c/internal/query"
	"f2c/internal/sensor"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// smallTopo is a 2-district, 5-section city for fast tests.
func smallTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New("Testville", []topology.District{
		{Name: "North", Sections: 3, Centroid: model.GeoPoint{Lat: 41.40, Lon: 2.17}},
		{Name: "South", Sections: 2, Centroid: model.GeoPoint{Lat: 41.37, Lon: 2.15}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newSystem(t *testing.T, opts Options) *System {
	t.Helper()
	if opts.Topology == nil {
		opts.Topology = smallTopo(t)
	}
	if opts.Clock == nil {
		opts.Clock = sim.NewVirtualClock(t0)
	}
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// archivedReadings counts the readings of one sensor type in the
// cloud's archive.
func archivedReadings(s *System, typeName string) int64 {
	var n int64
	for _, rec := range s.Cloud().Archive().Records() {
		if rec.Batch.TypeName == typeName {
			n += int64(len(rec.Batch.Readings))
		}
	}
	return n
}

func tempBatch(sensorID string, val float64, at time.Time) *model.Batch {
	return &model.Batch{
		NodeID: "edge", TypeName: "temperature", Category: model.CategoryEnergy, Collected: at,
		Readings: []model.Reading{{
			SensorID: sensorID, TypeName: "temperature", Category: model.CategoryEnergy,
			Time: at, Value: val, Unit: "C",
		}},
	}
}

func TestSystemWiring(t *testing.T) {
	s := newSystem(t, Options{Dedup: true, Quality: true})
	if got := len(s.Fog1IDs()); got != 5 {
		t.Errorf("fog1 nodes = %d, want 5", got)
	}
	if got := len(s.Fog2IDs()); got != 2 {
		t.Errorf("fog2 nodes = %d, want 2", got)
	}
	if s.Cloud() == nil || s.Network() == nil || s.Matrix() == nil || s.Topology() == nil {
		t.Error("accessors returned nil")
	}
	if _, ok := s.Fog1(s.Fog1IDs()[0]); !ok {
		t.Error("Fog1 lookup failed")
	}
	if _, ok := s.Fog2(s.Fog2IDs()[0]); !ok {
		t.Error("Fog2 lookup failed")
	}
	if _, ok := s.Fog1("ghost"); ok {
		t.Error("ghost fog1 lookup should fail")
	}
}

func TestEndToEndDataFlow(t *testing.T) {
	s := newSystem(t, Options{Dedup: true, Quality: true})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]

	var edgeBytes int64
	for _, b := range []*model.Batch{tempBatch("s0", 19.25, t0.Add(-time.Minute)), tempBatch("s1", 21, t0)} {
		b.Readings[0].Location = model.GeoPoint{Lat: 41.38, Lon: -2.17}
		edgeBytes += int64(len(sensor.EncodeBatch(b)))
		if err := s.IngestAt(f1, b); err != nil {
			t.Fatal(err)
		}
	}
	// The edge hop is charged the batches' exact wire encoding.
	if got := s.Matrix().Bytes(metrics.HopEdgeToFog1); got != edgeBytes {
		t.Errorf("edge->fog1 bytes = %d, want the batches' encoded %d", got, edgeBytes)
	}
	// Real-time read at the fog node, immediately.
	node, _ := s.Fog1(f1)
	r, found := node.Latest("s1")
	if !found || r.Value != 21 {
		t.Fatalf("fog read = %+v found=%v", r, found)
	}
	// Not yet at the cloud.
	eng := s.QueryEngine(f1)
	if _, found, _ := eng.LatestFrom(ctx, s.Cloud().ID(), "s1"); found {
		t.Error("data reached cloud before any flush")
	}
	// Flush the hierarchy: fog1 -> fog2 -> cloud.
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	r, found, err := eng.LatestFrom(ctx, s.Cloud().ID(), "s1")
	if err != nil || !found || r.Value != 21 {
		t.Fatalf("cloud read = %+v found=%v err=%v", r, found, err)
	}
	// Provenance records the sealing fog2 node and the cloud. (The
	// layer-2 node combines child batches and reseals them; original
	// fog1 origins remain recoverable from sensor IDs.)
	recs := s.Cloud().Archive().ByCategory(model.CategoryEnergy)
	if len(recs) != 1 {
		t.Fatalf("archive records = %d", len(recs))
	}
	prov := recs[0].Provenance
	if len(prov) != 2 || !strings.HasPrefix(prov[0], "fog2/") || prov[1] != "cloud" {
		t.Errorf("provenance = %v", prov)
	}
	// Traffic accounted on every hop.
	m := s.Matrix()
	for _, hop := range []metrics.Hop{metrics.HopEdgeToFog1, metrics.HopFog1ToFog2, metrics.HopFog2ToCloud} {
		if m.Bytes(hop) <= 0 {
			t.Errorf("hop %v has no accounted traffic", hop)
		}
	}
}

func TestIngestAtUnknownNode(t *testing.T) {
	s := newSystem(t, Options{})
	if err := s.IngestAt("fog1/nope", tempBatch("s1", 21, t0)); err == nil {
		t.Error("expected error")
	}
}

func TestDedupReducesUpwardTraffic(t *testing.T) {
	mk := func(dedup bool) int64 {
		s := newSystem(t, Options{Dedup: dedup, Codec: aggregate.CodecNone})
		ctx := context.Background()
		f1 := s.Fog1IDs()[0]
		for i := 0; i < 20; i++ {
			// Same value every time: maximally redundant stream.
			_ = s.IngestAt(f1, tempBatch("s1", 21, t0.Add(time.Duration(i)*time.Minute)))
		}
		_ = s.FlushAll(ctx)
		return s.Matrix().Bytes(metrics.HopFog1ToFog2)
	}
	with, without := mk(true), mk(false)
	if with >= without {
		t.Errorf("dedup upward bytes %d, without %d: elimination must reduce traffic", with, without)
	}
}

func TestCompressionReducesUpwardTraffic(t *testing.T) {
	mk := func(codec aggregate.Codec) int64 {
		s := newSystem(t, Options{Codec: codec})
		ctx := context.Background()
		f1 := s.Fog1IDs()[0]
		b := tempBatch("s1", 21, t0)
		for i := 0; i < 200; i++ {
			b.Readings = append(b.Readings, model.Reading{
				SensorID: "s1", TypeName: "temperature", Category: model.CategoryEnergy,
				Time: t0.Add(time.Duration(i) * time.Second), Value: 21, Unit: "C",
			})
		}
		_ = s.IngestAt(f1, b)
		_ = s.FlushAll(ctx)
		return s.Matrix().Bytes(metrics.HopFog1ToFog2)
	}
	zipped, raw := mk(aggregate.CodecZip), mk(aggregate.CodecNone)
	if zipped >= raw {
		t.Errorf("zip upward bytes %d, raw %d: compression must reduce traffic", zipped, raw)
	}
}

func TestNeighborQuery(t *testing.T) {
	s := newSystem(t, Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	// Two sections of the same district.
	a, b := ids[0], ids[1]
	if err := s.IngestAt(b, tempBatch("nb-sensor", 25, t0)); err != nil {
		t.Fatal(err)
	}
	got, err := s.QueryEngine(a).RangeFrom(ctx, b, "temperature", t0.Add(-time.Minute), t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != 25 {
		t.Errorf("neighbor query = %+v", got)
	}
	if s.Matrix().Bytes(metrics.HopFog1ToFog1) <= 0 {
		t.Error("neighbor traffic not accounted")
	}
}

func TestFlushRetriesOnLossyLink(t *testing.T) {
	// Inject 40% loss on the first fog1 node's uplink; repeated
	// flushes must eventually deliver everything without data loss.
	s := newSystem(t, Options{Seed: 3, Codec: aggregate.CodecNone})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	spec, _ := s.Topology().Node(f1)
	link := s.Network().Link(f1, spec.Parent)
	link.Loss = 0.4
	s.Network().SetLink(f1, spec.Parent, link)

	const batches = 10
	for i := 0; i < batches; i++ {
		_ = s.IngestAt(f1, tempBatch("s1", float64(i), t0.Add(time.Duration(i)*time.Minute)))
	}
	delivered := func() int64 { return archivedReadings(s, "temperature") }
	for attempt := 0; attempt < 100 && delivered() < batches; attempt++ {
		_ = s.FlushAll(ctx)
	}
	if got := delivered(); got != batches {
		t.Errorf("delivered %d of %d readings despite retries", got, batches)
	}
}

func TestPlannerMatchesSystemConfig(t *testing.T) {
	s := newSystem(t, Options{Fog1Retention: 30 * time.Minute, Fog2Retention: 6 * time.Hour})
	p := s.Planner()
	spec := placement.ServiceSpec{Name: "svc", TypeName: "temperature", Compute: placement.ComputeLight}

	spec.Window = 20 * time.Minute
	d, err := p.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.DataLayer != topology.LayerFog1 {
		t.Errorf("20m window data layer = %v, want fog1", d.DataLayer)
	}

	spec.Window = 3 * time.Hour
	d, err = p.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.DataLayer != topology.LayerFog2 {
		t.Errorf("3h window data layer = %v, want fog2", d.DataLayer)
	}
}

func TestDLCMapping(t *testing.T) {
	mapping := DLCMapping()
	if len(mapping) != 9 {
		t.Fatalf("mapping has %d phases, want 9 (Fig. 2)", len(mapping))
	}
	blocks := map[string]int{}
	for _, p := range mapping {
		blocks[p.Block]++
		if p.Phase == "" || p.Package == "" || p.Note == "" {
			t.Errorf("incomplete placement %+v", p)
		}
	}
	if blocks["acquisition"] != 4 || blocks["processing"] != 2 || blocks["preservation"] != 3 {
		t.Errorf("block sizes = %v", blocks)
	}
	// Acquisition happens at fog layer 1 (paper §IV.A).
	for _, p := range mapping {
		if p.Block == "acquisition" && p.Layer != topology.LayerFog1 {
			t.Errorf("acquisition phase %q at %v, want fog1", p.Phase, p.Layer)
		}
	}
	desc := DescribeDLC()
	for _, want := range []string{"acquisition", "data dissemination", "cloud"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeDLC missing %q", want)
		}
	}
}

func TestSystemStartClose(t *testing.T) {
	s := newSystem(t, Options{
		Clock:             sim.WallClock{},
		Fog1FlushInterval: 10 * time.Millisecond,
		Fog2FlushInterval: 10 * time.Millisecond,
	})
	f1 := s.Fog1IDs()[0]
	s.Start()
	if err := s.IngestAt(f1, tempBatch("s1", 21, time.Now())); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for s.Cloud().Archive().Len() == 0 {
		select {
		case <-deadline:
			t.Fatal("background flushers never delivered to cloud")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestQueryWithFallbackLocal(t *testing.T) {
	s := newSystem(t, Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	_ = s.IngestAt(f1, tempBatch("s1", 20, t0))
	got, src, err := s.QueryEngine(f1).Range(ctx, "temperature", t0.Add(-time.Minute), t0.Add(time.Minute), 100)
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceLocal || len(got) != 1 {
		t.Errorf("src = %v, readings = %d", src, len(got))
	}
}

func TestQueryWithFallbackNeighbor(t *testing.T) {
	s := newSystem(t, Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	a, b := ids[0], ids[1] // same district (North has 3 sections)
	_ = s.IngestAt(b, tempBatch("nb", 25, t0))
	// Small estimated volume: the cost model prefers the sibling.
	got, src, err := s.QueryEngine(a).Range(ctx, "temperature", t0.Add(-time.Minute), t0.Add(time.Minute), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceNeighbor {
		t.Errorf("src = %v, want neighbor", src)
	}
	if len(got) != 1 || got[0].Value != 25 {
		t.Errorf("readings = %+v", got)
	}
}

func TestQueryWithFallbackParent(t *testing.T) {
	clock := sim.NewVirtualClock(t0)
	s := newSystem(t, Options{Clock: clock, Fog1Retention: 30 * time.Minute})
	ctx := context.Background()
	ids := s.Fog1IDs()
	a, b := ids[0], ids[1]
	// The sibling collected data, flushed it to the parent, and its
	// temporal store has since evicted it: only the parent still
	// holds the window.
	_ = s.IngestAt(b, tempBatch("pp", 22, t0))
	n, _ := s.Fog1(b)
	if err := n.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	if err := n.Flush(ctx); err != nil { // applies retention eviction
		t.Fatal(err)
	}
	got, src, err := s.QueryEngine(a).Range(ctx, "temperature", t0.Add(-time.Minute), t0.Add(time.Minute), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != query.SourceParent {
		t.Errorf("src = %v, want parent (siblings evicted)", src)
	}
	if len(got) != 1 || got[0].Value != 22 {
		t.Errorf("readings = %+v", got)
	}
}

// TestQueryWithFallbackUnknownNode: an endpoint that is not a fog1
// node has no local, sibling or parent tier, so its range read goes
// straight to the cloud.
func TestQueryWithFallbackUnknownNode(t *testing.T) {
	s := newSystem(t, Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	_ = s.IngestAt(f1, tempBatch("s1", 20, t0))
	if _, src, err := s.QueryEngine("fog1/nope").Range(ctx, "temperature", t0.Add(-time.Minute), t0.Add(time.Minute), 1); err != nil || src != query.SourceCloud {
		t.Errorf("before flush: src = %v, err = %v; want the cloud", src, err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	got, src, err := s.QueryEngine("fog1/nope").Range(ctx, "temperature", t0.Add(-time.Minute), t0.Add(time.Minute), 1)
	if err != nil || src != query.SourceCloud || len(got) != 1 || got[0].Value != 20 {
		t.Errorf("after flush: src = %v, readings = %+v, err = %v; want one reading from the cloud", src, got, err)
	}
}

func TestCloudExpire(t *testing.T) {
	s := newSystem(t, Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	_ = s.IngestAt(f1, tempBatch("s1", 20, t0))
	_ = s.FlushAll(ctx)
	if s.Cloud().Archive().Len() != 1 {
		t.Fatal("nothing archived")
	}
	if n, err := s.Cloud().Expire(t0.Add(48 * time.Hour)); err != nil || n != 1 {
		t.Errorf("expired %d (%v), want 1", n, err)
	}
	if s.Cloud().Archive().Len() != 0 {
		t.Error("archive not empty after expiry")
	}
}

func TestDistrictOutageRecovery(t *testing.T) {
	// A fog2 node "crashes" mid-day (deregistered from the network);
	// its sections keep serving real-time reads and buffer upward
	// data; when the district returns, everything drains to the
	// cloud with no loss.
	s := newSystem(t, Options{Codec: aggregate.CodecNone})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	spec, _ := s.Topology().Node(f1)

	// Crash the parent: replace its handler with a failing one.
	s.Network().Register(spec.Parent, failingHandler{})

	for i := 0; i < 5; i++ {
		_ = s.IngestAt(f1, tempBatch("s1", float64(20+i), t0.Add(time.Duration(i)*time.Minute)))
	}
	if err := s.FlushAll(ctx); err == nil {
		t.Fatal("expected flush errors during the outage")
	}
	// Real-time reads keep working at the section.
	node, _ := s.Fog1(f1)
	if r, found := node.Latest("s1"); !found || r.Value != 24 {
		t.Fatalf("fog read during outage = %+v found=%v", r, found)
	}
	if node.PendingBatches() == 0 {
		t.Fatal("section must buffer during the outage")
	}

	// District recovers.
	parent, _ := s.Fog2(spec.Parent)
	s.Network().Register(spec.Parent, parent)
	if err := s.FlushAll(ctx); err != nil {
		t.Fatalf("post-recovery flush: %v", err)
	}
	if archived := archivedReadings(s, "temperature"); archived != 5 {
		t.Errorf("archived %d readings after recovery, want 5", archived)
	}
}

type failingHandler struct{}

func (failingHandler) Handle(context.Context, transport.Message) ([]byte, error) {
	return nil, errors.New("district offline")
}

// TestUnwireableBatchRefusedAtIngest: the upward seal is the text
// wire, which cannot carry ';' or a line break in a string field. A
// batch holding one must be refused at the edge: once acked, every
// later flush of its type would fail to open at fog2 and hold back the
// good readings queued behind it.
func TestUnwireableBatchRefusedAtIngest(t *testing.T) {
	s := newSystem(t, Options{Codec: aggregate.CodecNone})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	if err := s.IngestAt(f1, tempBatch("a;b", 20, t0)); err == nil {
		t.Error("a sensor id holding ';' was acked")
	}
	_ = s.FlushAll(ctx)
	if err := s.IngestAt(f1, tempBatch("good", 21, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatalf("flush after the refused batch: %v", err)
	}
	if got := archivedReadings(s, "temperature"); got != 1 {
		t.Errorf("cloud holds %d temperature readings, want the good one", got)
	}
}
