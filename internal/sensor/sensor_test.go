package sensor

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"f2c/internal/model"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func mustType(t *testing.T, name string) model.SensorType {
	t.Helper()
	st, err := model.TypeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGeneratorDeterminism(t *testing.T) {
	st := mustType(t, "temperature")
	mk := func() *Generator {
		g, err := NewGenerator(Config{Type: st, NodeID: "n1", Sensors: 50, Seed: 42, Redundancy: -1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 5; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		ba, bb := a.Next(now), b.Next(now)
		if len(ba.Readings) != len(bb.Readings) {
			t.Fatalf("len mismatch %d != %d", len(ba.Readings), len(bb.Readings))
		}
		for j := range ba.Readings {
			if ba.Readings[j] != bb.Readings[j] {
				t.Fatalf("round %d reading %d differs: %+v vs %+v", i, j, ba.Readings[j], bb.Readings[j])
			}
		}
	}
}

func TestGeneratorRedundancyConvergesToCategoryShare(t *testing.T) {
	for _, name := range []string{"temperature", "noise_level", "container_glass", "parking_spot", "traffic"} {
		st := mustType(t, name)
		g, err := NewGenerator(Config{Type: st, NodeID: "n1", Sensors: 200, Seed: 7, Redundancy: -1})
		if err != nil {
			t.Fatal(err)
		}
		var dup, total int
		last := make(map[string]float64)
		for i := 0; i < 50; i++ {
			b := g.Next(t0.Add(time.Duration(i) * time.Minute))
			for _, r := range b.Readings {
				if prev, ok := last[r.SensorID]; ok {
					total++
					if prev == r.Value {
						dup++
					}
				}
				last[r.SensorID] = r.Value
			}
		}
		got := float64(dup) / float64(total)
		want := st.Category.RedundantShare()
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s: measured duplicate share %.3f, want %.2f +/- 0.05", name, got, want)
		}
	}
}

func TestGeneratorValuesRespectSpec(t *testing.T) {
	st := mustType(t, "traffic")
	spec := SpecFor(st.Name)
	g, err := NewGenerator(Config{Type: st, NodeID: "n1", Sensors: 100, Seed: 3, Redundancy: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next(t0)
	if err := b.Validate(); err != nil {
		t.Fatalf("generated batch invalid: %v", err)
	}
	for _, r := range b.Readings {
		if r.Value < spec.Min || r.Value > spec.Max {
			t.Fatalf("value %v outside [%v,%v]", r.Value, spec.Min, spec.Max)
		}
		if r.Unit != spec.Unit {
			t.Fatalf("unit %q, want %q", r.Unit, spec.Unit)
		}
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	st := mustType(t, "temperature")
	cases := []Config{
		{Type: st, NodeID: "", Sensors: 1, Redundancy: -1},
		{Type: st, NodeID: "n", Sensors: 0, Redundancy: -1},
		{Type: st, NodeID: "n", Sensors: 1, Redundancy: 1.5},
		{Type: model.SensorType{}, NodeID: "n", Sensors: 1, Redundancy: -1},
	}
	for i, cfg := range cases {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFleetCoversCatalog(t *testing.T) {
	f, err := NewFleet(FleetConfig{NodeID: "n1", NodeCount: 73, Scale: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gens := f.Generators()
	if len(gens) != len(model.Catalog()) {
		t.Fatalf("fleet has %d generators, want %d", len(gens), len(model.Catalog()))
	}
	for _, g := range gens {
		if g.Sensors() < 1 {
			t.Errorf("%s: zero sensors", g.Type().Name)
		}
	}
	if _, err := NewFleet(FleetConfig{NodeID: "n", NodeCount: 0}); err == nil {
		t.Error("expected error for zero node count")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := mustType(t, "air_quality")
	g, err := NewGenerator(Config{Type: st, NodeID: "bcn/d1/s2", Sensors: 25, Seed: 9, Redundancy: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next(t0)
	wire := EncodeBatch(b)
	got, err := DecodeBatch(wire)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if got.NodeID != b.NodeID || got.TypeName != b.TypeName || got.Category != b.Category {
		t.Errorf("header mismatch: %+v", got)
	}
	if !got.Collected.Equal(b.Collected) {
		t.Errorf("collected %v != %v", got.Collected, b.Collected)
	}
	if len(got.Readings) != len(b.Readings) {
		t.Fatalf("readings %d != %d", len(got.Readings), len(b.Readings))
	}
	for i := range b.Readings {
		w, r := b.Readings[i], got.Readings[i]
		if w.SensorID != r.SensorID || w.Value != r.Value || !w.Time.Equal(r.Time) || w.Unit != r.Unit {
			t.Fatalf("reading %d mismatch: %+v vs %+v", i, w, r)
		}
		if math.Abs(w.Location.Lat-r.Location.Lat) > 1e-5 || math.Abs(w.Location.Lon-r.Location.Lon) > 1e-5 {
			t.Fatalf("reading %d location drifted: %+v vs %+v", i, w.Location, r.Location)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	st := mustType(t, "weather")
	prop := func(seed int64, n uint8) bool {
		count := int(n%50) + 1
		g, err := NewGenerator(Config{Type: st, NodeID: "p", Sensors: count, Seed: seed, Redundancy: -1})
		if err != nil {
			return false
		}
		b := g.Next(t0)
		got, err := DecodeBatch(EncodeBatch(b))
		if err != nil || len(got.Readings) != count {
			return false
		}
		for i := range b.Readings {
			if got.Readings[i].SensorID != b.Readings[i].SensorID ||
				got.Readings[i].Value != b.Readings[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad magic", "#nope;n;t;energy;0;0\n"},
		{"bad category", "#f2c;n;t;plasma;0;0\n"},
		{"bad count", "#f2c;n;t;energy;0;x\n"},
		{"bad collected", "#f2c;n;t;energy;zzz;0\n"},
		{"count mismatch", "#f2c;n;t;energy;0;2\na;1;2;u;0.0;0.0\n"},
		{"short line", "#f2c;n;t;energy;0;1\na;1;2\n"},
		{"bad value", "#f2c;n;t;energy;0;1\na;1;xx;u;0.0;0.0\n"},
		{"bad time", "#f2c;n;t;energy;0;1\na;q;2;u;0.0;0.0\n"},
		{"bad lat", "#f2c;n;t;energy;0;1\na;1;2;u;q;0.0\n"},
		{"bad lon", "#f2c;n;t;energy;0;1\na;1;2;u;0.0;q\n"},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch([]byte(tc.data)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDecodeBatchSkipsBlankLines(t *testing.T) {
	data := "#f2c;n;t;energy;0;1\n\na;1;2;u;0.0;0.0\n\n"
	b, err := DecodeBatch([]byte(data))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(b.Readings) != 1 {
		t.Fatalf("readings = %d, want 1", len(b.Readings))
	}
}

func TestEncodedPayloadIsTextual(t *testing.T) {
	st := mustType(t, "temperature")
	g, err := NewGenerator(Config{Type: st, NodeID: "n", Sensors: 3, Seed: 1, Redundancy: -1})
	if err != nil {
		t.Fatal(err)
	}
	wire := EncodeBatch(g.Next(t0))
	if !bytes.HasPrefix(wire, []byte("#f2c;")) {
		t.Errorf("payload should start with magic, got %q", wire[:10])
	}
	if bytes.IndexByte(wire, 0) != -1 {
		t.Error("payload should be NUL-free text")
	}
}

func TestSpecForUnknown(t *testing.T) {
	spec := SpecFor("unobtainium")
	if spec.Min != 0 || spec.Max != 100 {
		t.Errorf("unknown spec = %+v", spec)
	}
}
