package sensor

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
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

// TestColumnarExactMatchesText holds the version-2 layout to its
// contract: a batch opens from it bit for bit as from the text wire,
// on every named coordinate edge case (signed zeros, subnormals,
// non-finite values, every rounding tie within ±400, both sides of
// m = 2^53 and of 2^64) used as latitude, longitude and value.
func TestColumnarExactMatchesText(t *testing.T) {
	cases := coordinateCases()
	for start := 0; start < len(cases); start += 1000 {
		vs := cases[start:min(start+1000, len(cases))]
		b := &model.Batch{NodeID: "n", TypeName: "traffic", Category: model.CategoryUrban, Collected: t0}
		for i, v := range vs {
			b.Readings = append(b.Readings, model.Reading{
				SensorID: "s" + strconv.Itoa(i%7), TypeName: "traffic", Category: model.CategoryUrban,
				Time: t0.Add(time.Duration(i) * time.Millisecond), Value: v, Unit: "km/h",
				Location: model.GeoPoint{Lat: v, Lon: -v},
			})
		}
		text, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			t.Fatal(err)
		}
		exact := AppendBatchColumnarExact(nil, b)
		if exact[len(columnarMagic)] != columnarExact {
			t.Fatalf("version byte %d, want %d", exact[len(columnarMagic)], columnarExact)
		}
		col, err := DecodeBatchColumnar(exact)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vs {
			w, g := text.Readings[i], col.Readings[i]
			if math.IsNaN(w.Value) != math.IsNaN(g.Value) || (!math.IsNaN(w.Value) && math.Float64bits(w.Value) != math.Float64bits(g.Value)) {
				t.Fatalf("value %v (bits %#x): columnar bits %#x, text bits %#x", vs[i], math.Float64bits(vs[i]), math.Float64bits(g.Value), math.Float64bits(w.Value))
			}
			for _, c := range [][2]float64{{g.Location.Lat, w.Location.Lat}, {g.Location.Lon, w.Location.Lon}} {
				if math.Float64bits(c[0]) != math.Float64bits(c[1]) && !(math.IsNaN(c[0]) && math.IsNaN(c[1])) {
					t.Fatalf("coordinate from %v (bits %#x): columnar %v (bits %#x), text %v (bits %#x)",
						vs[i], math.Float64bits(vs[i]), c[0], math.Float64bits(c[0]), c[1], math.Float64bits(c[1]))
				}
			}
			g.Value, w.Value, g.Location, w.Location = 0, 0, model.GeoPoint{}, model.GeoPoint{}
			if g != w {
				t.Fatalf("reading %d: columnar %+v, text %+v", i, g, w)
			}
		}
	}
}

// TestColumnarExactDecodeErrors: a version-2 coordinate past the
// escape value and a truncated escape are refused, and a header
// counting more readings than the limit fails before its rows.
func TestColumnarExactDecodeErrors(t *testing.T) {
	b := &model.Batch{NodeID: "n", TypeName: "traffic", Category: model.CategoryUrban, Collected: t0,
		Readings: []model.Reading{{SensorID: "s", Time: t0, Unit: "u", Location: model.GeoPoint{Lat: 1, Lon: math.Inf(1)}}}}
	good := AppendBatchColumnarExact(nil, b)
	if _, err := DecodeBatchColumnar(good); err != nil {
		t.Fatal(err)
	}
	// The row ends with lat (m<<1 = 200000) and the escaped lon.
	lat := binary.AppendUvarint(nil, 200000)
	geo := len(good) - len(lat) - len(binary.AppendUvarint(nil, geoEscape)) - 8
	withLon := func(u uint64) []byte {
		return binary.AppendUvarint(append(append([]byte(nil), good[:geo]...), lat...), u)
	}
	if _, err := DecodeBatchColumnar(withLon(geoEscape - 1)); err != nil {
		t.Fatalf("largest fixed-point coordinate: %v", err)
	}
	for name, data := range map[string][]byte{
		"past escape":      withLon(geoEscape + 1),
		"truncated escape": good[:len(good)-1],
	} {
		if _, err := DecodeBatchColumnar(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeBatchColumnarLimit(good, 0); err == nil || !strings.Contains(err.Error(), "over the limit") {
		t.Errorf("one reading at limit 0: err = %v", err)
	}
	// The rows cut off: a count over the limit fails before any row
	// is read, so the error names the limit, not the truncation.
	if _, err := DecodeBatchColumnarLimit(good[:geo-3], 0); err == nil || !strings.Contains(err.Error(), "over the limit") {
		t.Errorf("rowless body at limit 0: err = %v", err)
	}
}
