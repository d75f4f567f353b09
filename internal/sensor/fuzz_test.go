package sensor

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"f2c/internal/model"
)

func fuzzSeedBatch() *model.Batch {
	at := time.Unix(0, 1496275200000000000)
	return &model.Batch{
		NodeID: "fog1/d01-s01", TypeName: "temperature", Category: model.CategoryEnergy,
		Collected: at,
		Readings: []model.Reading{
			{SensorID: "a", TypeName: "temperature", Category: model.CategoryEnergy,
				Time: at, Value: 21.5, Unit: "C", Location: model.GeoPoint{Lat: 41.38, Lon: 2.17}},
			{SensorID: "b", TypeName: "temperature", Category: model.CategoryEnergy,
				Time: at.Add(time.Minute), Value: -3.25, Unit: "C"},
		},
	}
}

// FuzzBatchRoundTrip feeds arbitrary bytes to both wire decoders.
// Any input a decoder accepts must re-encode canonically: encoding
// the decoded batch and decoding it again must reproduce the same
// bytes (a fixed point), and neither decoder may panic on junk.
func FuzzBatchRoundTrip(f *testing.F) {
	seed := fuzzSeedBatch()
	f.Add(EncodeBatch(seed))
	f.Add(AppendBatchColumnar(nil, seed))
	f.Add(AppendBatchColumnarExact(nil, seed))
	empty := &model.Batch{NodeID: "n", TypeName: "t", Category: model.CategoryEnergy, Collected: time.Unix(0, 7)}
	f.Add(EncodeBatch(empty))
	f.Add(AppendBatchColumnar(nil, empty))
	f.Add([]byte("#f2c;n;t;energy;1;1\nx;2;3;u;4;5\n"))
	f.Add([]byte("#f2c;;;energy;;\n"))
	f.Add([]byte("F2CC\x01"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := DecodeBatch(data); err == nil {
			// Re-encoding canonicalizes: the second decode must succeed
			// and preserve every field (locations to the wire format's
			// 5-decimal precision).
			wire := EncodeBatch(b)
			b2, err := DecodeBatch(wire)
			if err != nil {
				t.Fatalf("text: re-decode of canonical encoding failed: %v", err)
			}
			if b2.NodeID != b.NodeID || b2.TypeName != b.TypeName || b2.Category != b.Category ||
				!b2.Collected.Equal(b.Collected) || len(b2.Readings) != len(b.Readings) {
				t.Fatalf("text: header changed across round trip: %+v vs %+v", b2, b)
			}
			for i := range b.Readings {
				w, r := &b.Readings[i], &b2.Readings[i]
				if r.SensorID != w.SensorID || !r.Time.Equal(w.Time) ||
					(r.Value != w.Value && !(r.Value != r.Value && w.Value != w.Value)) || // NaN-tolerant
					r.Unit != w.Unit {
					t.Fatalf("text: reading %d changed across round trip: %+v vs %+v", i, r, w)
				}
				if !approxGeo(r.Location.Lat, w.Location.Lat) || !approxGeo(r.Location.Lon, w.Location.Lon) {
					t.Fatalf("text: reading %d location drifted: %+v vs %+v", i, r.Location, w.Location)
				}
			}
		}
		if b, err := DecodeBatchColumnar(data); err == nil {
			wire := AppendBatchColumnar(nil, b)
			b2, err := DecodeBatchColumnar(wire)
			if err != nil {
				t.Fatalf("columnar: re-decode of canonical encoding failed: %v", err)
			}
			if wire2 := AppendBatchColumnar(nil, b2); !bytes.Equal(wire, wire2) {
				t.Fatalf("columnar: canonical encoding is not a fixed point (%d vs %d bytes)", len(wire), len(wire2))
			}
		}
	})
}

// approxGeo compares coordinates at the wire format's 5-decimal
// precision, tolerating the representable-double rounding either side
// of it. Non-finite values only need to survive as non-finite.
func approxGeo(got, want float64) bool {
	if got == want {
		return true
	}
	if got != got && want != want { // both NaN
		return true
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1.000001e-5*scale+1e-5
}

// FuzzDecodeBatch asserts the structured round trip: every encoded
// batch decodes back to equal contents, whatever the generator emits.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(int64(1), uint8(3), int64(1496275200000000000))
	f.Add(int64(99), uint8(40), int64(-5))
	f.Fuzz(func(t *testing.T, seed int64, sensors uint8, atNano int64) {
		st, err := model.TypeByName("traffic")
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(Config{
			Type: st, NodeID: "fuzz-node", Sensors: int(sensors)%64 + 1, Seed: seed, Redundancy: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := g.Next(time.Unix(0, atNano))
		got, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			t.Fatalf("decode of encoded batch: %v", err)
		}
		if got.NodeID != b.NodeID || got.TypeName != b.TypeName || got.Category != b.Category ||
			!got.Collected.Equal(b.Collected) || len(got.Readings) != len(b.Readings) {
			t.Fatalf("header mismatch: got %+v want %+v", got, b)
		}
		for i := range b.Readings {
			w, r := &b.Readings[i], &got.Readings[i]
			if r.SensorID != w.SensorID || !r.Time.Equal(w.Time) || r.Value != w.Value || r.Unit != w.Unit {
				t.Fatalf("reading %d: got %+v want %+v", i, r, w)
			}
		}
	})
}

// columnarCorpus returns the []byte inputs checked in for
// FuzzBatchRoundTrip, so the range decoder's fuzz starts from every
// columnar payload that ever broke the whole-batch decoder.
func columnarCorpus(f *testing.F) [][]byte {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzBatchRoundTrip", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
					out = append(out, []byte(s))
				}
			}
		}
	}
	return out
}

// FuzzColumnarRange holds the range-bounded append decoder to the
// whole-batch one: for arbitrary bytes and bounds it fails exactly
// when DecodeBatchColumnar fails, and otherwise appends exactly the
// readings of DecodeBatchColumnar timed within [from, to], the first
// max of them when max > 0, behind whatever dst already held — and
// reports the same type name and count. It never panics.
func FuzzColumnarRange(f *testing.F) {
	seed := fuzzSeedBatch()
	at := seed.Collected.UnixNano()
	f.Add(AppendBatchColumnar(nil, seed), int64(math.MinInt64), int64(math.MaxInt64), 0)
	f.Add(AppendBatchColumnar(nil, seed), at, at, 0)
	f.Add(AppendBatchColumnar(nil, seed), at+1, int64(math.MaxInt64), 1)
	f.Add(AppendBatchColumnar(nil, seed), at+1, at, 0) // empty range
	f.Add(AppendBatchColumnarExact(nil, seed), int64(math.MinInt64), int64(math.MaxInt64), 0)
	f.Add(AppendBatchColumnar(nil, &model.Batch{NodeID: "n", TypeName: "t", Category: model.CategoryEnergy, Collected: time.Unix(0, 7)}), int64(0), int64(9), 3)
	f.Add([]byte("F2CC\x01"), int64(0), int64(0), 0)
	f.Add([]byte(nil), int64(0), int64(0), -1)
	for _, data := range columnarCorpus(f) {
		f.Add(data, int64(math.MinInt64), int64(math.MaxInt64), 0)
		f.Add(data, at, at+int64(time.Minute), 1)
	}

	f.Fuzz(func(t *testing.T, data []byte, from, to int64, max int) {
		held := []model.Reading{{SensorID: "held"}}
		got, typ, count, err := AppendReadingsColumnar(held, data, from, to, max)
		b, wantErr := DecodeBatchColumnar(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("range decoder error %v, whole-batch decoder error %v", err, wantErr)
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("failed decode left %d readings in dst, want the 1 it held", len(got))
			}
			return
		}
		want := held
		for _, r := range b.Readings {
			if ns := r.Time.UnixNano(); ns >= from && ns <= to && (max <= 0 || len(want)-1 < max) {
				want = append(want, r)
			}
		}
		// Compare field by field: NaN values never DeepEqual.
		if len(got) != len(want) {
			t.Fatalf("range [%d, %d] max %d: %d readings, want %d", from, to, max, len(got)-1, len(want)-1)
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("reading %d: value bits differ", i)
			}
			g.Value, w.Value = 0, 0
			g.Location, w.Location = model.GeoPoint{}, model.GeoPoint{}
			if g != w {
				t.Fatalf("reading %d: %+v, want %+v", i, got[i], want[i])
			}
			gl, wl := got[i].Location, want[i].Location
			if math.Float64bits(gl.Lat) != math.Float64bits(wl.Lat) || math.Float64bits(gl.Lon) != math.Float64bits(wl.Lon) {
				t.Fatalf("reading %d: location bits differ", i)
			}
		}
		if typ != b.TypeName || count != len(b.Readings) {
			t.Fatalf("type %q, count %d do not describe %+v", typ, count, b)
		}
		// The payload-derived bounds hold: the decoder never reserves
		// more rows than the payload has bytes.
		if cap(got) > 2*(len(data)+len(held))+4 {
			t.Fatalf("dst grew to cap %d over a %d-byte payload", cap(got), len(data))
		}
	})
}
