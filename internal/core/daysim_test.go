package core

import (
	"context"
	"math"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/sim"
)

// daySystem builds a Barcelona-topology system on a virtual clock,
// ready for RunDay.
func daySystem(t *testing.T, opts Options) (*System, *sim.VirtualClock) {
	t.Helper()
	clock := sim.NewVirtualClock(t0)
	opts.Clock = clock
	opts.Dedup = true
	opts.Quality = true
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func TestRunDayRequiresVirtualClock(t *testing.T) {
	s := newSystem(t, Options{Clock: sim.WallClock{}})
	if _, err := s.RunDay(DayConfig{}); err == nil {
		t.Error("expected error for wall clock")
	}
}

func TestRunDaySmall(t *testing.T) {
	// 2 hours of the energy category at heavy scale reduction.
	types := []model.SensorType{}
	for _, st := range model.Catalog() {
		if st.Category == model.CategoryEnergy {
			types = append(types, st)
		}
	}
	// Flate keeps envelope framing small so the byte comparison is
	// meaningful even at reduced batch sizes; flushing hourly lets
	// batches accumulate several collection rounds.
	s, _ := daySystem(t, Options{
		Codec:             aggregate.CodecFlate,
		Fog1FlushInterval: time.Hour,
	})
	res, err := s.RunDay(DayConfig{
		Start:    t0,
		Duration: 4 * time.Hour,
		Scale:    200,
		Types:    types,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedReadings == 0 {
		t.Fatal("no readings generated")
	}
	if res.Events == 0 {
		t.Fatal("no events processed")
	}
	if res.EdgeBytes <= 0 || res.Fog1ToFog2Bytes <= 0 || res.Fog2ToCloudBytes <= 0 {
		t.Errorf("hop bytes = %d / %d / %d", res.EdgeBytes, res.Fog1ToFog2Bytes, res.Fog2ToCloudBytes)
	}
	// Upward traffic after elimination+compression must be well
	// below the edge volume.
	if res.Fog1ToFog2Bytes >= res.EdgeBytes {
		t.Errorf("fog1->fog2 bytes %d not below edge %d", res.Fog1ToFog2Bytes, res.EdgeBytes)
	}
	if res.CloudArchivedBatches == 0 {
		t.Error("nothing archived at cloud")
	}
	// Energy dedup share converges near the paper's 50%.
	share := res.DedupShare[model.CategoryEnergy]
	if math.Abs(share-0.50) > 0.08 {
		t.Errorf("energy dedup share = %.3f, want 0.50 +/- 0.08", share)
	}
	// Extrapolation helpers scale linearly.
	if res.ScaledEdgeBytes() != res.EdgeBytes*int64(res.Scale) {
		t.Error("ScaledEdgeBytes mismatch")
	}
	if res.ScaledFog2ToCloudBytes() != res.Fog2ToCloudBytes*int64(res.Scale) {
		t.Error("ScaledFog2ToCloudBytes mismatch")
	}
}

func TestRunDayDeterministic(t *testing.T) {
	types := []model.SensorType{mustCatalogType(t, "parking_spot")}
	run := func() *DayResult {
		s, _ := daySystem(t, Options{})
		res, err := s.RunDay(DayConfig{
			Start: t0, Duration: time.Hour, Scale: 4000, Types: types, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.GeneratedReadings != b.GeneratedReadings {
		t.Errorf("readings differ: %d vs %d", a.GeneratedReadings, b.GeneratedReadings)
	}
	if a.EdgeBytes != b.EdgeBytes || a.Fog1ToFog2Bytes != b.Fog1ToFog2Bytes || a.Fog2ToCloudBytes != b.Fog2ToCloudBytes {
		t.Errorf("traffic differs: %+v vs %+v", a, b)
	}
}

func TestRunDayNoDataLoss(t *testing.T) {
	// Every reading kept by redundant-data elimination at layer 1
	// must reach the cloud after the end-of-day drain (quality
	// rejects nothing for valid generator output; layer 2 does not
	// re-eliminate).
	types := []model.SensorType{mustCatalogType(t, "container_glass")}
	s, _ := daySystem(t, Options{})
	res, err := s.RunDay(DayConfig{
		Start: t0, Duration: 3 * time.Hour, Scale: 4000, Types: types, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	archived := archivedReadings(s, "container_glass")
	var observed, kept int64
	for _, id := range s.Fog1IDs() {
		n, _ := s.Fog1(id)
		in, k := n.DedupStats()
		observed += in
		kept += k
	}
	if observed != res.GeneratedReadings {
		t.Errorf("dedupers observed %d readings, generated %d", observed, res.GeneratedReadings)
	}
	if archived != kept {
		t.Errorf("archived %d readings, kept-after-dedup %d", archived, kept)
	}
	if archived == 0 {
		t.Error("nothing archived")
	}
}

func mustCatalogType(t *testing.T, name string) model.SensorType {
	t.Helper()
	st, err := model.TypeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunDayPerCategoryFlushPolicy(t *testing.T) {
	// Urban data gets a 5-minute upward frequency while everything
	// else keeps the hourly default; both must arrive at the cloud,
	// with urban in many more (smaller) upward messages.
	types := []model.SensorType{
		mustCatalogType(t, "traffic"),
		mustCatalogType(t, "container_glass"),
	}
	clock := sim.NewVirtualClock(t0)
	s, err := NewSystem(Options{
		Clock:             clock,
		Dedup:             true,
		Quality:           true,
		Codec:             aggregate.CodecNone,
		Fog1FlushInterval: time.Hour,
		Fog1FlushByCategory: map[model.Category]time.Duration{
			model.CategoryUrban: 5 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunDay(DayConfig{
		Start: t0, Duration: 2 * time.Hour, Scale: 2000, Types: types, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedReadings == 0 {
		t.Fatal("no readings")
	}
	urbanMsgs := s.Matrix().Messages(metrics.HopFog1ToFog2)
	if urbanMsgs == 0 {
		t.Fatal("no upward messages")
	}
	// Both categories fully preserved after the drain.
	urban, garbage := archivedReadings(s, "traffic"), archivedReadings(s, "container_glass")
	if urban == 0 || garbage == 0 {
		t.Errorf("archived urban=%d garbage=%d, want both > 0", urban, garbage)
	}
	// The urban class produced far more upward messages than the
	// hourly garbage class (24+ five-minute slots vs ~2 hourly).
	urbanClassMsgs := countClassMessages(s, model.CategoryUrban)
	garbageClassMsgs := countClassMessages(s, model.CategoryGarbage)
	if urbanClassMsgs <= 2*garbageClassMsgs {
		t.Errorf("urban upward messages = %d, garbage = %d: per-category schedule not applied",
			urbanClassMsgs, garbageClassMsgs)
	}
}

func countClassMessages(s *System, cat model.Category) int64 {
	return s.Matrix().MessagesByClass(metrics.HopFog1ToFog2, cat.String())
}

func TestRunDayWithLossyUplinksNoDataLoss(t *testing.T) {
	// Inject loss on every fog1 uplink for the whole simulated span;
	// flush failures requeue, and post-run retries must still deliver
	// every kept reading to the cloud.
	types := []model.SensorType{mustCatalogType(t, "parking_spot")}
	s, _ := daySystem(t, Options{Codec: aggregate.CodecNone, Seed: 9})
	for _, id := range s.Fog1IDs() {
		spec, _ := s.Topology().Node(id)
		link := s.Network().Link(id, spec.Parent)
		link.Loss = 0.5
		s.Network().SetLink(id, spec.Parent, link)
	}
	// RunDay's own end-of-day drain is expected to fail under loss;
	// data stays requeued at the fog nodes.
	if _, err := s.RunDay(DayConfig{
		Start: t0, Duration: 2 * time.Hour, Scale: 4000, Types: types, Seed: 9,
	}); err == nil {
		t.Log("drain survived the lossy links on the first pass")
	}
	// Retry the drain until every link transfer succeeds.
	ctx := context.Background()
	var err error
	for attempt := 0; attempt < 500; attempt++ {
		if err = s.FlushAll(ctx); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("could not drain after retries: %v", err)
	}
	archived := archivedReadings(s, "parking_spot")
	var observed, kept int64
	for _, id := range s.Fog1IDs() {
		n, _ := s.Fog1(id)
		in, k := n.DedupStats()
		observed += in
		kept += k
	}
	if archived != kept {
		t.Errorf("archived %d readings, kept %d: loss caused data loss", archived, kept)
	}
	if observed == 0 || archived == 0 {
		t.Error("empty run")
	}
}
