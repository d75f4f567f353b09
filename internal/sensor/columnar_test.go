package sensor

import (
	"testing"
	"testing/quick"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
)

func columnarSample(t *testing.T, sensors, rounds int, seed int64) *model.Batch {
	t.Helper()
	st := mustType(t, "temperature")
	g, err := NewGenerator(Config{Type: st, NodeID: "n1", Sensors: sensors, Seed: seed, Redundancy: -1})
	if err != nil {
		t.Fatal(err)
	}
	out := g.Next(t0)
	for i := 1; i < rounds; i++ {
		b := g.Next(t0.Add(time.Duration(i) * time.Minute))
		out.Readings = append(out.Readings, b.Readings...)
	}
	return out
}

func TestColumnarRoundTrip(t *testing.T) {
	b := columnarSample(t, 30, 4, 7)
	enc := AppendBatchColumnar(nil, b)
	got, err := DecodeBatchColumnar(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.NodeID != b.NodeID || got.TypeName != b.TypeName || got.Category != b.Category {
		t.Errorf("header = %+v", got)
	}
	if !got.Collected.Equal(b.Collected) {
		t.Errorf("collected = %v", got.Collected)
	}
	if len(got.Readings) != len(b.Readings) {
		t.Fatalf("readings = %d, want %d", len(got.Readings), len(b.Readings))
	}
	for i := range b.Readings {
		w, r := b.Readings[i], got.Readings[i]
		if w.SensorID != r.SensorID || w.Value != r.Value || !w.Time.Equal(r.Time) || w.Unit != r.Unit {
			t.Fatalf("reading %d: got %+v want %+v", i, r, w)
		}
		// Locations are stored as float32: verify within precision.
		if dLat := w.Location.Lat - r.Location.Lat; dLat > 1e-4 || dLat < -1e-4 {
			t.Fatalf("reading %d lat drifted: %v vs %v", i, r.Location.Lat, w.Location.Lat)
		}
	}
}

func TestColumnarSmallerThanText(t *testing.T) {
	b := columnarSample(t, 50, 8, 3)
	text := EncodeBatch(b)
	col := AppendBatchColumnar(nil, b)
	if len(col) >= len(text)/2 {
		t.Errorf("columnar %d B, text %d B: want < half", len(col), len(text))
	}
	// And it still compresses further.
	comp, err := aggregate.Compress(aggregate.CodecFlate, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(col) {
		t.Errorf("flate(columnar) = %d B, want < %d", len(comp), len(col))
	}
}

func TestColumnarRoundTripProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		count := int(n%40) + 1
		st, err := model.TypeByName("weather")
		if err != nil {
			return false
		}
		g, err := NewGenerator(Config{Type: st, NodeID: "p", Sensors: count, Seed: seed, Redundancy: -1})
		if err != nil {
			return false
		}
		b := g.Next(t0)
		got, err := DecodeBatchColumnar(AppendBatchColumnar(nil, b))
		if err != nil || len(got.Readings) != count {
			return false
		}
		for i := range b.Readings {
			if got.Readings[i].SensorID != b.Readings[i].SensorID ||
				got.Readings[i].Value != b.Readings[i].Value ||
				!got.Readings[i].Time.Equal(b.Readings[i].Time) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestColumnarDecodeErrors(t *testing.T) {
	good := AppendBatchColumnar(nil, columnarSample(t, 3, 1, 1))
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("NOPE" + string(good[4:])),
		"bad ver":    append([]byte("F2CC\xff"), good[5:]...),
		"truncated":  good[:len(good)/2],
		"trailing":   append(append([]byte{}, good...), 0x00),
		"only magic": []byte("F2CC"),
	}
	for name, data := range cases {
		if _, err := DecodeBatchColumnar(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestColumnarEmptyBatch(t *testing.T) {
	b := &model.Batch{NodeID: "n", TypeName: "temperature", Category: model.CategoryEnergy, Collected: t0}
	got, err := DecodeBatchColumnar(AppendBatchColumnar(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Readings) != 0 || got.NodeID != "n" {
		t.Errorf("got %+v", got)
	}
}
