package f2c_test

import (
	"context"
	"testing"
	"time"

	"f2c"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// TestPublicAPIQuickstart exercises the documented public surface the
// way the quickstart example does.
func TestPublicAPIQuickstart(t *testing.T) {
	topo, err := f2c.NewTopology("Testville", []f2c.District{
		{Name: "A", Sections: 2}, {Name: "B", Sections: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := f2c.NewVirtualClock(t0)
	sys, err := f2c.NewSystem(f2c.Options{
		Topology: topo, Clock: clock, Dedup: true, Quality: true, Codec: f2c.CodecZip,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	node := sys.Fog1IDs()[0]
	batch := &f2c.Batch{
		NodeID: "edge", TypeName: "temperature", Category: f2c.CategoryEnergy, Collected: t0,
		Readings: []f2c.Reading{{
			SensorID: "s1", TypeName: "temperature", Category: f2c.CategoryEnergy,
			Time: t0, Value: 20, Unit: "C",
		}},
	}
	if err := sys.IngestAt(node, batch); err != nil {
		t.Fatal(err)
	}
	fog, _ := sys.Fog1(node)
	if r, found := fog.Latest("s1"); !found || r.Value != 20 {
		t.Fatalf("fog read = %+v %v", r, found)
	}
	if err := sys.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if hist := sys.Cloud().Historical("temperature", t0.Add(-time.Hour), t0.Add(time.Hour)); len(hist) != 1 {
		t.Fatalf("historical = %d", len(hist))
	}
}

func TestPublicAPIBarcelonaPreset(t *testing.T) {
	topo := f2c.Barcelona()
	f1, f2, cl := topo.Counts()
	if f1 != 73 || f2 != 10 || cl != 1 {
		t.Errorf("Barcelona = %d/%d/%d", f1, f2, cl)
	}
	if types := f2c.Catalog(); len(types) != 21 {
		t.Errorf("catalog = %d types", len(types))
	}
}

func TestPublicAPIPlacement(t *testing.T) {
	sys, err := f2c.NewSystem(f2c.Options{Clock: f2c.NewVirtualClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.Planner().Place(f2c.ServiceSpec{
		Name: "svc", TypeName: "traffic", Window: time.Minute,
		Compute: f2c.ComputeLight, MaxLatency: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.AccessRTT > 10*time.Millisecond {
		t.Errorf("decision = %+v", d)
	}
}

func TestPublicAPIDaySim(t *testing.T) {
	clock := f2c.NewVirtualClock(t0)
	sys, err := f2c.NewSystem(f2c.Options{Clock: clock, Dedup: true, Quality: true})
	if err != nil {
		t.Fatal(err)
	}
	var parking []f2c.SensorType
	for _, st := range f2c.Catalog() {
		if st.Name == "parking_spot" {
			parking = append(parking, st)
		}
	}
	res, err := sys.RunDay(f2c.DayConfig{
		Start: t0, Duration: time.Hour, Scale: 4000, Seed: 1, Types: parking,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedReadings == 0 || res.EdgeBytes == 0 {
		t.Errorf("result = %+v", res)
	}
}
