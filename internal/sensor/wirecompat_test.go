package sensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"
	"time"

	"f2c/internal/model"
)

// Reference implementations of the pre-append-refactor encoders,
// kept verbatim so the tests can prove the append-based rewrites
// produce byte-identical wire output.

func legacyEncodeBatch(b *model.Batch) []byte {
	var buf bytes.Buffer
	buf.Grow(64 + len(b.Readings)*48)
	fmt.Fprintf(&buf, "%s;%s;%s;%s;%d;%d\n",
		headerMagic, b.NodeID, b.TypeName, b.Category, b.Collected.UnixNano(), len(b.Readings))
	for i := range b.Readings {
		r := &b.Readings[i]
		buf.WriteString(r.SensorID)
		buf.WriteByte(';')
		buf.WriteString(strconv.FormatInt(r.Time.UnixNano(), 10))
		buf.WriteByte(';')
		buf.WriteString(strconv.FormatFloat(r.Value, 'f', -1, 64))
		buf.WriteByte(';')
		buf.WriteString(r.Unit)
		buf.WriteByte(';')
		buf.WriteString(strconv.FormatFloat(r.Location.Lat, 'f', 5, 64))
		buf.WriteByte(';')
		buf.WriteString(strconv.FormatFloat(r.Location.Lon, 'f', 5, 64))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func legacyPutString(buf *bytes.Buffer, s string) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(s)))
	buf.Write(tmp[:n])
	buf.WriteString(s)
}

func legacyPutUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func legacyPutVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func legacyEncodeBatchColumnar(b *model.Batch) []byte {
	var buf bytes.Buffer
	buf.WriteString(columnarMagic)
	buf.WriteByte(columnarVersion)
	legacyPutString(&buf, b.NodeID)
	legacyPutString(&buf, b.TypeName)
	buf.WriteByte(byte(b.Category))
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(b.Collected.UnixNano()))
	buf.Write(ts[:])
	legacyPutUvarint(&buf, uint64(len(b.Readings)))

	idSet := make(map[string]struct{}, len(b.Readings))
	unitSet := make(map[string]struct{}, 4)
	for i := range b.Readings {
		idSet[b.Readings[i].SensorID] = struct{}{}
		unitSet[b.Readings[i].Unit] = struct{}{}
	}
	ids := make([]string, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	idIdx := make(map[string]uint64, len(ids))
	for i, id := range ids {
		idIdx[id] = uint64(i)
	}
	units := make([]string, 0, len(unitSet))
	for u := range unitSet {
		units = append(units, u)
	}
	sort.Strings(units)
	unitIdx := make(map[string]uint64, len(units))
	for i, u := range units {
		unitIdx[u] = uint64(i)
	}
	legacyPutUvarint(&buf, uint64(len(ids)))
	for _, id := range ids {
		legacyPutString(&buf, id)
	}
	legacyPutUvarint(&buf, uint64(len(units)))
	for _, u := range units {
		legacyPutString(&buf, u)
	}

	prevTime := b.Collected.UnixNano()
	var prevBits uint64
	for i := range b.Readings {
		r := &b.Readings[i]
		legacyPutUvarint(&buf, idIdx[r.SensorID])
		t := r.Time.UnixNano()
		legacyPutVarint(&buf, t-prevTime)
		prevTime = t
		bits := math.Float64bits(r.Value)
		legacyPutUvarint(&buf, bits^prevBits)
		prevBits = bits
		legacyPutUvarint(&buf, unitIdx[r.Unit])
		var geo [8]byte
		binary.BigEndian.PutUint32(geo[:4], math.Float32bits(float32(r.Location.Lat)))
		binary.BigEndian.PutUint32(geo[4:], math.Float32bits(float32(r.Location.Lon)))
		buf.Write(geo[:])
	}
	return buf.Bytes()
}

func wireCompatBatches(t testing.TB) []*model.Batch {
	t.Helper()
	batches := []*model.Batch{
		benchBatchTB(t, 1, 1),
		benchBatchTB(t, 7, 3),
		benchBatchTB(t, 100, 8),
	}
	// An empty batch and awkward values exercise the header and
	// formatting edge cases.
	batches = append(batches, &model.Batch{
		NodeID: "n-empty", TypeName: "temperature", Category: model.CategoryEnergy,
		Collected: time.Unix(0, 1496275200000000123),
	})
	batches = append(batches, &model.Batch{
		NodeID: "n-edge", TypeName: "temperature", Category: model.CategoryEnergy,
		Collected: time.Unix(0, -5),
		Readings: []model.Reading{{
			SensorID: "s/edge", TypeName: "temperature", Category: model.CategoryEnergy,
			Time: time.Unix(0, -123456789), Value: -0.000001234, Unit: "",
			Location: model.GeoPoint{Lat: -89.999994, Lon: 179.999996},
		}},
	})
	return batches
}

func benchBatchTB(tb testing.TB, sensors, rounds int) *model.Batch {
	st, err := model.TypeByName("temperature")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGenerator(Config{Type: st, NodeID: "n1", Sensors: sensors, Seed: 1, Redundancy: -1})
	if err != nil {
		tb.Fatal(err)
	}
	out := g.Next(t0)
	for i := 1; i < rounds; i++ {
		nb := g.Next(t0.Add(time.Duration(i) * time.Minute))
		out.Readings = append(out.Readings, nb.Readings...)
	}
	return out
}

// TestAppendBatchMatchesLegacyEncoder proves the append-based text
// encoder emits the exact bytes of the pre-refactor fmt/bytes.Buffer
// encoder.
func TestAppendBatchMatchesLegacyEncoder(t *testing.T) {
	for i, b := range wireCompatBatches(t) {
		want := legacyEncodeBatch(b)
		got := EncodeBatch(b)
		if !bytes.Equal(got, want) {
			t.Errorf("batch %d: EncodeBatch diverges from legacy encoder\n got: %q\nwant: %q", i, got, want)
		}
		// Appending after existing content must not disturb it.
		prefix := []byte("prefix-bytes")
		appended := AppendBatch(append([]byte(nil), prefix...), b)
		if !bytes.Equal(appended[:len(prefix)], prefix) {
			t.Errorf("batch %d: AppendBatch clobbered prefix", i)
		}
		if !bytes.Equal(appended[len(prefix):], want) {
			t.Errorf("batch %d: AppendBatch suffix diverges from legacy encoder", i)
		}
	}
}

// TestAppendBatchColumnarMatchesLegacyEncoder does the same for the
// columnar delta format.
func TestAppendBatchColumnarMatchesLegacyEncoder(t *testing.T) {
	for i, b := range wireCompatBatches(t) {
		want := legacyEncodeBatchColumnar(b)
		got := AppendBatchColumnar(nil, b)
		if !bytes.Equal(got, want) {
			t.Errorf("batch %d: AppendBatchColumnar(nil, b) diverges from legacy encoder (len %d vs %d)", i, len(got), len(want))
		}
		prefix := []byte{0xde, 0xad}
		appended := AppendBatchColumnar(append([]byte(nil), prefix...), b)
		if !bytes.Equal(appended[len(prefix):], want) {
			t.Errorf("batch %d: AppendBatchColumnar suffix diverges from legacy encoder", i)
		}
	}
}

// TestDecodeBatchLyingCountNoHugeAlloc: a header claiming far more
// readings than the payload can hold must fail on the count check
// without pre-allocating reading structs for the claimed count
// (in-memory readings are ~100 bytes vs >=12 wire bytes per line, a
// ~100x amplification a hostile peer could otherwise exploit).
func TestDecodeBatchLyingCountNoHugeAlloc(t *testing.T) {
	payload := []byte("#f2c;n;temperature;energy;0;1000000000\na;1;2;u;3;4\n")
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeBatch(payload); err == nil {
			t.Fatal("lying count accepted")
		}
	})
	// The pre-fix path allocated a one-billion-entry slice; the
	// bounded path allocates a handful of small objects.
	if allocs > 50 {
		t.Fatalf("decode of lying-count payload did %v allocs", allocs)
	}
}

// TestDecodeBatchLargePayload covers payloads past the old 16MB
// bufio.Scanner cap, which the index-based parser lifted.
func TestDecodeBatchLargePayload(t *testing.T) {
	if testing.Short() {
		t.Skip("large payload")
	}
	b := benchBatchTB(t, 2000, 150) // ~20MB of wire text
	wire := EncodeBatch(b)
	if len(wire) < 17*1024*1024 {
		t.Fatalf("want >16MiB payload, got %d bytes", len(wire))
	}
	got, err := DecodeBatch(wire)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got.Readings) != len(b.Readings) {
		t.Fatalf("got %d readings, want %d", len(got.Readings), len(b.Readings))
	}
}
