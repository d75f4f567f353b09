// Package query_test exercises the hierarchical query engine over a
// fully wired simulated city (core.System), asserting tier routing,
// paging, scatter-gather, push-down, and traffic accounting.
package query_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/core"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/query"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func newCity(t testing.TB, opts core.Options) (*core.System, *sim.VirtualClock) {
	t.Helper()
	topo, err := topology.New("Testville", []topology.District{
		{Name: "North", Sections: 3, Centroid: model.GeoPoint{Lat: 41.40, Lon: 2.17}},
		{Name: "South", Sections: 2, Centroid: model.GeoPoint{Lat: 41.37, Lon: 2.15}},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewVirtualClock(t0)
	opts.Topology = topo
	opts.Clock = clock
	s, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func trafficBatch(sensorID string, n int, at time.Time) *model.Batch {
	b := &model.Batch{NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: at}
	for i := 0; i < n; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: sensorID, TypeName: "traffic", Category: model.CategoryUrban,
			Time: at.Add(time.Duration(i) * time.Second), Value: float64(i%97) + 0.25*float64(i%13),
			Unit: "veh/h",
		})
	}
	return b
}

type nopStore struct{}

func (nopStore) QueryPage(string, time.Time, time.Time, int, string) ([]model.Reading, string, error) {
	return nil, "", nil
}
func (nopStore) Latest(string) (model.Reading, bool) { return model.Reading{}, false }

type nopTransport struct{}

func (nopTransport) Send(context.Context, transport.Message) ([]byte, error) {
	return nil, errors.New("unreachable")
}

// TestPlanRangePrunesTiers checks the tier-routing planner: tiers
// whose retention window cannot contain the range are dropped.
func TestPlanRangePrunesTiers(t *testing.T) {
	eng, err := query.New(query.Config{
		Self: "fog1/a", Transport: nopTransport{},
		Fog1Retention: time.Hour, Fog2Retention: 24 * time.Hour,
		Siblings: []string{"fog1/b"}, Parent: "fog2/d", CloudID: "cloud",
		Local: nopStore{},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := t0.Add(96 * time.Hour)
	planOf := func(from, to time.Time) []query.Step {
		return eng.PlanRange(now, from, to, 100)
	}
	tiers := func(steps []query.Step) []query.Tier {
		var out []query.Tier
		for _, st := range steps {
			out = append(out, st.Tier)
		}
		return out
	}
	cases := []struct {
		name     string
		from, to time.Time
		want     []query.Tier
	}{
		{"recent range: all tiers", now.Add(-time.Minute), now,
			[]query.Tier{query.TierLocal, query.TierSiblings, query.TierParent, query.TierCloud}},
		{"wide range reaching now: fog tiers hold the fresh slice", now.Add(-48 * time.Hour), now,
			[]query.Tier{query.TierLocal, query.TierSiblings, query.TierParent, query.TierCloud}},
		{"range entirely older than fog1 window: siblings pruned", now.Add(-3 * time.Hour), now.Add(-2 * time.Hour),
			[]query.Tier{query.TierLocal, query.TierParent, query.TierCloud}},
		{"range entirely older than fog2 window: only cloud remains", now.Add(-72 * time.Hour), now.Add(-49 * time.Hour),
			[]query.Tier{query.TierLocal, query.TierCloud}},
	}
	for _, c := range cases {
		got := tiers(planOf(c.from, c.to))
		if len(got) != len(c.want) {
			t.Errorf("%s: plan = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: plan = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
	// Authoritativeness tracks containment, not overlap: a parent that
	// can only hold part of the range must not end the walk when empty.
	for _, st := range planOf(now.Add(-48*time.Hour), now) {
		if st.Tier == query.TierParent && st.Authoritative {
			t.Error("parent marked authoritative for a range wider than its window")
		}
	}
	for _, st := range planOf(now.Add(-time.Minute), now) {
		if st.Tier == query.TierParent && !st.Authoritative {
			t.Error("parent not authoritative for a range its window contains")
		}
	}
}

// TestRangeHistoricalFromCloud drives the full fallback walk to the
// archive: data older than every fog window must come back from the
// cloud, paged — the stream is longer than one page.
func TestRangeHistoricalFromCloud(t *testing.T) {
	const total = protocol.DefaultPageLimit + 476
	s, clock := newCity(t, core.Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	if err := s.IngestAt(f1, trafficBatch("s1", total, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(48 * time.Hour) // both fog windows have passed
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err) // flush applies retention eviction at the fog layers
	}
	got, src, err := s.QueryWithFallback(ctx, f1, "traffic", t0, t0.Add(time.Hour), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != core.SourceCloud {
		t.Errorf("source = %v, want cloud", src)
	}
	if len(got) != total {
		t.Errorf("readings = %d, want %d", len(got), total)
	}
}

// TestRangeAuthoritativeEmptyParent is the retention-window fix: a
// range the parent's window fully contains, answered empty, must end
// the walk (definitive empty) instead of falling through to the
// cloud over the WAN.
func TestRangeAuthoritativeEmptyParent(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	m := s.Matrix()
	m.Reset()
	got, src, err := s.QueryWithFallback(ctx, f1, "traffic", t0.Add(-time.Minute), t0.Add(time.Minute), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || src != core.SourceParent {
		t.Errorf("empty authoritative answer = %d readings from %v, want 0 from parent", len(got), src)
	}
	// The cloud was never consulted: no query traffic on any WAN hop.
	for _, hop := range []metrics.Hop{metrics.HopFog2ToCloud, metrics.HopEdgeToCloud} {
		if b := m.BytesByClass(hop, transport.ClassQuery); b != 0 {
			t.Errorf("hop %v saw %d query bytes; authoritative empty must stop the walk", hop, b)
		}
	}
}

// TestScatterGatherSiblings exercises the concurrent fan-out: several
// siblings are probed at once and the one holding the data answers.
func TestScatterGatherSiblings(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs() // North has 3 sections: d01-s01..s03 are siblings
	if err := s.IngestAt(ids[2], trafficBatch("far", 30, t0)); err != nil {
		t.Fatal(err)
	}
	got, src, err := s.QueryWithFallback(ctx, ids[0], "traffic", t0.Add(-time.Minute), t0.Add(time.Minute), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != core.SourceNeighbor {
		t.Errorf("source = %v, want neighbor", src)
	}
	if len(got) != 30 {
		t.Errorf("readings = %d, want 30", len(got))
	}
}

// pageSpyTransport wraps a transport and decodes every query reply,
// recording how many readings each response materialized.
type pageSpyTransport struct {
	inner     transport.Transport
	pageSizes []int
}

func (c *pageSpyTransport) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	reply, err := c.inner.Send(ctx, msg)
	if err == nil && msg.Kind == transport.KindQuery {
		if page, derr := protocol.DecodeQueryPage(reply); derr == nil {
			c.pageSizes = append(c.pageSizes, len(page.Readings))
		}
	}
	return reply, err
}

// TestPagedWalkBounded asserts the acceptance bound: a client asking
// for more than the server page limit L gets no single query response
// that materializes more than L readings, and the full walk still
// returns everything.
func TestPagedWalkBounded(t *testing.T) {
	const pageLimit, total = protocol.DefaultPageLimit, 2*protocol.DefaultPageLimit + 452
	s, clock := newCity(t, core.Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	if err := s.IngestAt(f1, trafficBatch("s1", total, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(48 * time.Hour)

	spy := &pageSpyTransport{inner: s.Network()}
	eng, err := query.New(query.Config{
		Self: f1, Transport: spy, Clock: clock, CloudID: core.CloudID,
		PageLimit: 4 * pageLimit, // ask big: the server clamps
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RangeFrom(ctx, core.CloudID, "traffic", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("walk = %d readings, want %d", len(got), total)
	}
	wantPages := (total + pageLimit - 1) / pageLimit
	if len(spy.pageSizes) != wantPages {
		t.Errorf("responses = %d, want %d pages", len(spy.pageSizes), wantPages)
	}
	for i, n := range spy.pageSizes {
		if n > pageLimit {
			t.Errorf("response %d materialized %d readings, page limit %d", i, n, pageLimit)
		}
	}
}

// TestAggregatePushdownDistricts merges district partials for a
// recent window: the answer matches the lossless city-wide summary
// and no raw readings cross the network.
func TestAggregatePushdownDistricts(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	if err := s.IngestAt(ids[0], trafficBatch("a", 40, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestAt(ids[4], trafficBatch("b", 25, t0)); err != nil { // other district
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	sum, src, err := s.Aggregate(ctx, ids[0], "traffic", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if src != core.SourceParent {
		t.Errorf("source = %v, want parent (district partials)", src)
	}
	want, err := s.CitySummary("traffic", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 65 || sum != want {
		t.Errorf("pushdown sum = %+v, want %+v", sum, want)
	}
}

// TestAggregatePushdown10x is the headline acceptance criterion: for
// the same historical range query, summary push-down must move at
// least 10x fewer bytes over the fog2->cloud WAN link (request +
// response) than shipping the raw readings.
func TestAggregatePushdown10x(t *testing.T) {
	s, clock := newCity(t, core.Options{})
	ctx := context.Background()
	f1 := s.Fog1IDs()[0]
	if err := s.IngestAt(f1, trafficBatch("s1", 2000, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(48 * time.Hour) // historical: only the cloud holds it
	requester := s.Fog2IDs()[0]   // a district asks across the WAN
	eng := s.QueryEngine(requester)
	m := s.Matrix()

	wanQueryBytes := func() int64 {
		return m.BytesByClass(metrics.HopFog2ToCloud, transport.ClassQuery) +
			m.BytesByClass(metrics.HopDownlink, transport.ClassQuery)
	}

	m.Reset()
	raw, err := eng.RangeFrom(ctx, core.CloudID, "traffic", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2000 {
		t.Fatalf("raw readings = %d", len(raw))
	}
	rawBytes := wanQueryBytes()

	m.Reset()
	sum, src, err := eng.Aggregate(ctx, "traffic", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	pushBytes := wanQueryBytes()

	if src != query.SourceCloud || sum.Count != 2000 {
		t.Fatalf("pushdown = %+v from %v", sum, src)
	}
	want := aggregate.Summarize(raw)
	if sum != want {
		t.Errorf("pushdown sum = %+v, want %+v", sum, want)
	}
	if rawBytes < 10*pushBytes {
		t.Errorf("raw = %d bytes, pushdown = %d bytes: want >= 10x reduction (got %.1fx)",
			rawBytes, pushBytes, float64(rawBytes)/float64(pushBytes))
	}
	t.Logf("fog2->cloud WAN query bytes: raw %d vs pushdown %d (%.1fx)",
		rawBytes, pushBytes, float64(rawBytes)/float64(pushBytes))
}

// TestQueryTrafficClassTagged is the accounting fix: query and
// summary traffic must be attributed to the dedicated query class on
// both directions, not the empty class.
func TestQueryTrafficClassTagged(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	if err := s.IngestAt(ids[1], trafficBatch("nb", 3, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	m := s.Matrix()
	m.Reset()

	if _, err := s.QueryNeighbor(ctx, ids[0], ids[1], "traffic", t0.Add(-time.Minute), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LatestFromCloud(ctx, ids[0], "nb"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoteSummary(ctx, ids[0], s.Fog2IDs()[0], "traffic", t0.Add(-time.Minute), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	checks := []struct {
		name string
		hop  metrics.Hop
	}{
		{"neighbor query request", metrics.HopFog1ToFog1},
		{"cloud query request", metrics.HopEdgeToCloud},
		{"summary request", metrics.HopFog1ToFog2},
		{"responses", metrics.HopDownlink},
	}
	for _, c := range checks {
		if b := m.BytesByClass(c.hop, transport.ClassQuery); b <= 0 {
			t.Errorf("%s: no bytes attributed to class %q on hop %v", c.name, transport.ClassQuery, c.hop)
		}
		if b := m.BytesByClass(c.hop, ""); b != 0 {
			t.Errorf("%s: %d bytes still attributed to the empty class on hop %v",
				c.name, m.BytesByClass(c.hop, ""), c.hop)
		}
	}
}

// TestLatestLocalFirst confirms the point-read path: local store
// served without any network traffic.
func TestLatestLocalFirst(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	f1 := s.Fog1IDs()[0]
	if err := s.IngestAt(f1, trafficBatch("rt", 1, t0)); err != nil {
		t.Fatal(err)
	}
	m := s.Matrix()
	m.Reset()
	r, ok, src, err := s.QueryEngine(f1).Latest(context.Background(), "rt")
	if err != nil || !ok {
		t.Fatalf("latest = %v, %v", ok, err)
	}
	if src != query.SourceLocal || r.Value != 0 {
		t.Errorf("latest = %+v from %v", r, src)
	}
	if b := m.BytesByClass(metrics.HopEdgeToCloud, transport.ClassQuery); b != 0 {
		t.Errorf("local latest crossed the WAN: %d bytes", b)
	}
}

// TestRangePartialOnCrashedSiblings drives a federated range query
// while every sibling is crashed: the walk must skip the dead tier
// (fast errors, no hang), answer from the parent district, and flag
// the result as partial with the unreachable endpoints named.
func TestRangePartialOnCrashedSiblings(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs() // d01-s01..s03 share district d01
	if err := s.IngestAt(ids[1], trafficBatch("pp", 20, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, sib := range []string{ids[1], ids[2]} {
		s.Network().Crash(sib)
	}
	res, err := s.QueryEngine(ids[0]).RangeDetailed(ctx, "traffic", t0.Add(-time.Minute), t0.Add(time.Minute), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != query.SourceParent || len(res.Readings) != 20 {
		t.Fatalf("range = %d readings from %v, want 20 from parent", len(res.Readings), res.Source)
	}
	if !res.Partial {
		t.Error("result not flagged partial with both siblings down")
	}
	if len(res.Unreachable) != 2 {
		t.Errorf("unreachable = %v, want both siblings", res.Unreachable)
	}
	// The blind API keeps working identically.
	got, src, err := s.QueryWithFallback(ctx, ids[0], "traffic", t0.Add(-time.Minute), t0.Add(time.Minute), 1000)
	if err != nil || src != core.SourceParent || len(got) != 20 {
		t.Fatalf("blind fallback = %d from %v, %v", len(got), src, err)
	}
}

// TestRangeFanoutSkipsPartitionedSibling partitions one sibling link:
// the scatter-gather must still win from the healthy sibling and
// report the partitioned one.
func TestRangeFanoutSkipsPartitionedSibling(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	if err := s.IngestAt(ids[2], trafficBatch("fan", 15, t0)); err != nil {
		t.Fatal(err)
	}
	s.Network().Partition(ids[0], ids[1]) // the empty sibling is unreachable
	res, err := s.QueryEngine(ids[0]).RangeDetailed(ctx, "traffic", t0.Add(-time.Minute), t0.Add(time.Minute), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != query.SourceNeighbor || len(res.Readings) != 15 {
		t.Fatalf("fan-out = %d readings from %v, want 15 from neighbor", len(res.Readings), res.Source)
	}
	if !res.Partial || len(res.Unreachable) != 1 || res.Unreachable[0] != ids[1] {
		t.Errorf("partial=%v unreachable=%v, want the partitioned sibling reported", res.Partial, res.Unreachable)
	}
}

// TestAggregateFallsBackToCloudOnDistrictFailure crashes one district
// owner: the push-down must detect the incomplete gather and take the
// cloud's complete answer instead of a lossy merge.
func TestAggregateFallsBackToCloudOnDistrictFailure(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	if err := s.IngestAt(ids[0], trafficBatch("a", 40, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestAt(ids[4], trafficBatch("b", 25, t0)); err != nil { // other district
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	s.Network().Crash(s.Fog2IDs()[1])
	res, err := s.QueryEngine(ids[0]).AggregateDetailed(ctx, "traffic", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Source != query.SourceCloud || res.Summary.Count != 65 {
		t.Fatalf("aggregate = %+v, want complete count 65 from cloud", res)
	}
}

// TestAggregatePartialWhenCloudUnreachable is the degraded endgame: a
// district AND the cloud are down, so the engine returns the merged
// summary of the surviving districts with the explicit partial flag —
// and the blind Aggregate API refuses the silent undercount.
func TestAggregatePartialWhenCloudUnreachable(t *testing.T) {
	s, _ := newCity(t, core.Options{})
	ctx := context.Background()
	ids := s.Fog1IDs()
	if err := s.IngestAt(ids[0], trafficBatch("a", 40, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestAt(ids[4], trafficBatch("b", 25, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	deadDistrict := s.Fog2IDs()[1]
	s.Network().Crash(deadDistrict)
	s.Network().Crash(core.CloudID)

	eng := s.QueryEngine(ids[0])
	res, err := eng.AggregateDetailed(ctx, "traffic", t0.Add(-time.Minute), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Source != query.SourceParent {
		t.Fatalf("aggregate = %+v, want a partial district merge", res)
	}
	if res.Summary.Count != 40 {
		t.Errorf("partial count = %d, want 40 (only district 1 answered)", res.Summary.Count)
	}
	if len(res.Missing) != 1 || res.Missing[0] != deadDistrict {
		t.Errorf("missing = %v, want [%s]", res.Missing, deadDistrict)
	}
	if _, _, err := eng.Aggregate(ctx, "traffic", t0.Add(-time.Minute), t0.Add(time.Hour)); err == nil {
		t.Error("blind Aggregate must refuse a partial summary")
	}

	// With every owner down the detailed API finally errors.
	s.Network().Crash(s.Fog2IDs()[0])
	if _, err := eng.AggregateDetailed(ctx, "traffic", t0.Add(-time.Minute), t0.Add(time.Hour)); err == nil {
		t.Error("expected an error with every owner unreachable")
	}
}
