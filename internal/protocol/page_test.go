package protocol

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sensor"
)

func pageReadings(n int, at time.Time) []model.Reading {
	out := make([]model.Reading, n)
	for i := range out {
		out[i] = model.Reading{
			SensorID: "s" + string(rune('a'+i%26)), TypeName: "traffic",
			Category: model.CategoryUrban, Time: at.Add(time.Duration(i) * time.Second),
			Value: float64(i), Unit: "veh/h",
			Location: model.GeoPoint{Lat: 41.38879 + float64(i)*0.0012345, Lon: 2.15899 - float64(i)*0.0000071},
		}
	}
	return out
}

// goldenPageFile is a page sealed by the zip-sealing page encoder that
// preceded the BestSpeed page codec: EncodeQueryPage("cloud",
// goldenPage(), CodecZip). It pins that a client reads an older
// server's pages.
var goldenPageFile = filepath.Join("testdata", "query_page_zip.bin")

func goldenPage() QueryPage {
	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	r := func(i int, dt time.Duration, v, lat, lon float64) model.Reading {
		return model.Reading{
			SensorID: "edge/d01-s01/traffic/" + strconv.Itoa(i), TypeName: "traffic",
			Category: model.CategoryUrban, Time: at.Add(dt), Value: v, Unit: "veh/h",
			Location: model.GeoPoint{Lat: lat, Lon: lon},
		}
	}
	return QueryPage{Found: true, NextCursor: "1496325600000000000.3", Readings: []model.Reading{
		r(0, 0, 412.5, 41.38879, 2.15899),
		r(1, 1500*time.Millisecond, -3.25, 41.40321, 2.17403),
		r(2, 2*time.Hour, 0, -33.86882, 151.20929),
	}}
}

// appendTextPage seals p the way servers did before pages carried the
// columnar body: the batch's text wire encoding at flate.BestSpeed.
func appendTextPage(dst []byte, nodeID string, p QueryPage) ([]byte, error) {
	dst, err := AppendQueryPage(dst, nodeID, QueryPage{Found: p.Found, NextCursor: p.NextCursor})
	if err != nil || len(p.Readings) == 0 {
		return dst, err
	}
	b := &model.Batch{NodeID: nodeID, TypeName: p.Readings[0].TypeName, Category: p.Readings[0].Category,
		Collected: p.Readings[len(p.Readings)-1].Time, Readings: p.Readings}
	s := sealerPool.Get().(*Sealer)
	defer sealerPool.Put(s)
	s.wire = sensor.AppendBatch(s.wire[:0], b)
	dst = append(dst, envelopeMagic, envelopeVersion, byte(pageCodec))
	return aggregate.AppendFlateBestSpeed(dst, s.wire)
}

// goldenColumnarFile is the golden page as servers seal it since
// pages carry the columnar body: EncodeQueryPage("cloud", goldenPage()).
// It pins that later clients keep reading today's pages.
var goldenColumnarFile = filepath.Join("testdata", "query_page_columnar.bin")

// wireCoordinate is v as the text wire carries it: 5 decimals.
func wireCoordinate(v float64) float64 {
	w, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 5, 64), 64)
	return w
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// samePage reports the first field where got differs from what want
// encodes to: every page and reading field, locations to the wire's 5
// decimals.
func samePage(got, want QueryPage) error {
	if got.Found != want.Found || got.NextCursor != want.NextCursor {
		return fmt.Errorf("found/cursor = %v/%q, want %v/%q", got.Found, got.NextCursor, want.Found, want.NextCursor)
	}
	if len(got.Readings) != len(want.Readings) {
		return fmt.Errorf("%d readings, want %d", len(got.Readings), len(want.Readings))
	}
	for i, g := range got.Readings {
		w := want.Readings[i]
		if g.SensorID != w.SensorID || g.TypeName != w.TypeName || g.Category != w.Category || g.Unit != w.Unit ||
			!g.Time.Equal(w.Time) || !sameFloat(g.Value, w.Value) ||
			!sameFloat(g.Location.Lat, wireCoordinate(w.Location.Lat)) || !sameFloat(g.Location.Lon, wireCoordinate(w.Location.Lon)) {
			return fmt.Errorf("reading %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

func TestQueryPageRoundTrip(t *testing.T) {
	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	page := QueryPage{Found: true, NextCursor: "1496318400000000000.2", Readings: pageReadings(5, at)}
	payload, err := EncodeQueryPage("fog1/d01-s01", page)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQueryPage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePage(got, page); err != nil {
		t.Errorf("round trip: %v", err)
	}
	// The envelope after the 3-byte header and the cursor names the
	// page codec, so any client opens the page by its codec byte.
	if env := payload[4+len(page.NextCursor):]; env[0] != envelopeMagic || aggregate.Codec(env[2]) != pageCodec {
		t.Errorf("page envelope header = % x, want magic 0x%02x codec %v", env[:3], envelopeMagic, pageCodec)
	}
}

// TestQueryPageMixedVersions decodes pages sealed the way an older
// server sealed them: the golden zip page byte for byte, and the same
// header followed by an envelope in each upward codec.
func TestQueryPageMixedVersions(t *testing.T) {
	want := goldenPage()
	golden, err := os.ReadFile(goldenPageFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQueryPage(golden)
	if err != nil {
		t.Fatalf("golden zip page: %v", err)
	}
	if err := samePage(got, want); err != nil {
		t.Errorf("golden zip page: %v", err)
	}
	header, err := EncodeQueryPage("cloud", QueryPage{Found: want.Found, NextCursor: want.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	b := &model.Batch{NodeID: "cloud", TypeName: "traffic", Category: model.CategoryUrban,
		Collected: want.Readings[len(want.Readings)-1].Time, Readings: want.Readings}
	for _, codec := range []aggregate.Codec{aggregate.CodecNone, aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		payload, err := AppendBatchPayload(append([]byte(nil), header...), b, codec)
		if err != nil {
			t.Fatal(err)
		}
		if codec == aggregate.CodecZip && string(payload) != string(golden) {
			t.Errorf("a zip page sealed today differs from the golden file")
		}
		got, err := DecodeQueryPage(payload)
		if err != nil {
			t.Fatalf("%v page: %v", codec, err)
		}
		if err := samePage(got, want); err != nil {
			t.Errorf("%v page: %v", codec, err)
		}
	}
}

// TestQueryPageColumnarGolden decodes the golden columnar page byte
// for byte, and checks that it and a page sealed today both carry the
// version-2 columnar body.
func TestQueryPageColumnarGolden(t *testing.T) {
	want := goldenPage()
	golden, err := os.ReadFile(goldenColumnarFile)
	if err != nil {
		t.Fatal(err)
	}
	today, err := EncodeQueryPage("cloud", want)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"golden": golden, "today": today} {
		got, err := DecodeQueryPage(payload)
		if err != nil {
			t.Fatalf("%s columnar page: %v", name, err)
		}
		if err := samePage(got, want); err != nil {
			t.Errorf("%s columnar page: %v", name, err)
		}
		wire, scratch, codec, _, err := openEnvelope(payload[4+len(want.NextCursor):], maxPageWireSize)
		if err != nil {
			t.Fatal(err)
		}
		if codec != pageCodec || !sensor.IsColumnar(wire) || wire[4] != 2 {
			t.Errorf("%s page body: codec %v, header %q, want %v and columnar version 2", name, codec, wire[:min(5, len(wire))], pageCodec)
		}
		putOpenBuf(scratch, wire)
	}
}

func TestQueryPageEmpty(t *testing.T) {
	payload, err := EncodeQueryPage("cloud", QueryPage{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQueryPage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Found || got.NextCursor != "" || len(got.Readings) != 0 {
		t.Errorf("empty page = %+v", got)
	}
}

func TestQueryPageCorrupt(t *testing.T) {
	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	good, err := EncodeQueryPage("n", QueryPage{Found: true, Readings: pageReadings(2, at)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short":        {pageMagic},
		"bad magic":    append([]byte{0x00}, good[1:]...),
		"bad version":  {pageMagic, 99, 0},
		"cursor trunc": {pageMagic, pageVersion, pageFlagMore, 200},
		"body trunc":   good[:len(good)-3],
	}
	for name, payload := range cases {
		if _, err := DecodeQueryPage(payload); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestQueryPageBounds pins what a reply page may make a client
// allocate, for either body: one inflating past maxPageWireSize fails
// with *aggregate.SizeLimitError, and a page over DefaultPageLimit
// readings is refused while a full page opens — a columnar one by its
// header's count, before any row is decoded.
func TestQueryPageBounds(t *testing.T) {
	header := []byte{pageMagic, pageVersion, pageFlagFound, 0}
	envelope := append(append([]byte(nil), header...), envelopeMagic, envelopeVersion, byte(pageCodec))
	for name, body := range map[string][]byte{
		"text":     make([]byte, maxPageWireSize+1),
		"columnar": append([]byte("F2CC\x02"), make([]byte, maxPageWireSize-4)...),
	} {
		bomb, err := aggregate.AppendFlateBestSpeed(append([]byte(nil), envelope...), body)
		if err != nil {
			t.Fatal(err)
		}
		var sizeErr *aggregate.SizeLimitError
		if _, err := DecodeQueryPage(bomb); !errors.As(err, &sizeErr) || sizeErr.Limit != maxPageWireSize {
			t.Errorf("%s deflate bomb of %d bytes: err = %v, want *aggregate.SizeLimitError at %d", name, len(bomb), err, maxPageWireSize)
		}
	}

	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	for _, n := range []int{DefaultPageLimit, DefaultPageLimit + 1} {
		rs := pageReadings(n, at)
		b := &model.Batch{NodeID: "n", TypeName: "traffic", Category: model.CategoryUrban, Collected: at, Readings: rs}
		text, err := AppendBatchPayload(append([]byte(nil), header...), b, pageCodec)
		if err != nil {
			t.Fatal(err)
		}
		columnar, err := aggregate.AppendFlateBestSpeed(append([]byte(nil), envelope...), sensor.AppendBatchColumnarExact(nil, b))
		if err != nil {
			t.Fatal(err)
		}
		for name, payload := range map[string][]byte{"text": text, "columnar": columnar} {
			p, err := DecodeQueryPage(payload)
			if n <= DefaultPageLimit && (err != nil || len(p.Readings) != n) {
				t.Errorf("%d-reading %s page: %d readings, %v", n, name, len(p.Readings), err)
			}
			if n > DefaultPageLimit && err == nil {
				t.Errorf("%d-reading %s page accepted", n, name)
			}
		}
	}
	// A columnar body counting DefaultPageLimit+1 readings whose last
	// row is cut short: refused for its count, so no row was read.
	b := &model.Batch{NodeID: "n", TypeName: "traffic", Category: model.CategoryUrban, Collected: at, Readings: pageReadings(DefaultPageLimit+1, at)}
	body := sensor.AppendBatchColumnarExact(nil, b)
	cut, err := aggregate.AppendFlateBestSpeed(append([]byte(nil), envelope...), body[:len(body)-1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeQueryPage(cut); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("over the limit of %d", DefaultPageLimit)) {
		t.Errorf("over-count columnar page with a cut row: err = %v, want the page limit named", err)
	}
}

// FuzzQueryPage feeds the page decoder what a remote peer could send:
// arbitrary bytes never panic, and a page the decoder accepts encodes
// and decodes back to equal fields.
func FuzzQueryPage(f *testing.F) {
	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	for _, p := range []QueryPage{
		{Found: true, NextCursor: "1496318400000000000.2", Readings: pageReadings(5, at)},
		{},
		{Found: true, NextCursor: "1496318400000000000.2"},
	} {
		payload, err := EncodeQueryPage("fog2/d01", p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// Pages from older servers: the golden zip page and text bodies.
	text, err := appendTextPage(nil, "fog2/d01", QueryPage{Found: true, NextCursor: "1496318400000000000.2", Readings: pageReadings(5, at)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(text)
	for _, name := range []string{goldenPageFile, goldenColumnarFile} {
		golden, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := DecodeQueryPage(payload)
		if err != nil {
			return
		}
		again, err := EncodeQueryPage("fog2/d01", p)
		if err != nil {
			t.Fatalf("re-encode of accepted page failed: %v", err)
		}
		got, err := DecodeQueryPage(again)
		if err != nil {
			t.Fatalf("re-decode of re-encoded page failed: %v", err)
		}
		if err := samePage(got, p); err != nil {
			t.Fatalf("round trip drifted: %v", err)
		}
	})
}

// FuzzQueryPageCodecsAgree holds the columnar page to the text page it
// replaced: for readings built from fuzzed floats and strings, when the
// text page opens, the columnar page opens to the same readings, field
// by field and bit for bit — except that a NaN value need only stay
// NaN. Readings a node refuses at acceptance (model.Reading.Validate:
// among others, ';' or a line break in a string field, which the text
// wire cannot carry) are out of the contract.
func FuzzQueryPageCodecsAgree(f *testing.F) {
	sub := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		id, unit    string
		v, lat, lon float64
		ns          int64
	}{
		{"edge/d01-s01/traffic/0", "km/h", 412.5, 41.38879, 2.15899, 1496318400000000000},
		{"s", "", 0, math.Copysign(0, -1), 0, 0},
		{"s", "C", math.Copysign(0, -1), sub, -sub, -1},
		{"s", "C", sub, 0x1p-1022, -0x1p-1030, 1},
		{"s", "C", math.NaN(), math.NaN(), math.Inf(1), math.MaxInt64},
		{"s", "C", math.Inf(-1), math.Inf(-1), 1e300, math.MinInt64},
		{"s", "C", 1e300, -1e300, math.MaxFloat64, 7},
		{"tie", "C", 0.015625, 0.015625, -0.046875, 7},
		{"tie", "C", 41.015625, -41.046875, 0.0000049999, 7},
		{"2^53", "C", 0x1p53 / 1e5, -0x1p53 / 1e5, 0x1p64 / 1e5, 7},
		{"a;b", "u\n", 1, 2, 3, 4},
	} {
		f.Add(c.id, c.unit, c.v, c.lat, c.lon, c.ns)
	}
	f.Fuzz(func(t *testing.T, id, unit string, v, lat, lon float64, ns int64) {
		r := func(id string, dt int64, v, lat, lon float64) model.Reading {
			return model.Reading{SensorID: id, TypeName: "traffic", Category: model.CategoryUrban,
				Time: time.Unix(0, ns+dt), Value: v, Unit: unit, Location: model.GeoPoint{Lat: lat, Lon: lon}}
		}
		page := QueryPage{Found: true, NextCursor: "c", Readings: []model.Reading{
			r(id, 0, v, lat, lon), r(id+"/1", 1, lat, lon, v), r(id, 2, lon, v, lat),
		}}
		for i := range page.Readings {
			if page.Readings[i].Validate() != nil {
				return // no node accepts it, so no page carries it
			}
		}
		textPayload, err := appendTextPage(nil, "cloud", page)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeQueryPage(textPayload)
		if err != nil {
			return // the text wire cannot carry these readings
		}
		payload, err := EncodeQueryPage("cloud", page)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeQueryPage(payload)
		if err != nil {
			t.Fatalf("columnar page of readings whose text page opens: %v", err)
		}
		if got.Found != want.Found || got.NextCursor != want.NextCursor || len(got.Readings) != len(want.Readings) {
			t.Fatalf("columnar page %+v, text page %+v", got, want)
		}
		for i := range want.Readings {
			g, w := got.Readings[i], want.Readings[i]
			if math.IsNaN(g.Value) != math.IsNaN(w.Value) || (!math.IsNaN(w.Value) && math.Float64bits(g.Value) != math.Float64bits(w.Value)) {
				t.Fatalf("reading %d value: columnar bits %#x, text bits %#x", i, math.Float64bits(g.Value), math.Float64bits(w.Value))
			}
			if math.Float64bits(g.Location.Lat) != math.Float64bits(w.Location.Lat) || math.Float64bits(g.Location.Lon) != math.Float64bits(w.Location.Lon) {
				t.Fatalf("reading %d location: columnar bits %#x/%#x, text bits %#x/%#x", i,
					math.Float64bits(g.Location.Lat), math.Float64bits(g.Location.Lon), math.Float64bits(w.Location.Lat), math.Float64bits(w.Location.Lon))
			}
			g.Value, w.Value, g.Location, w.Location = 0, 0, model.GeoPoint{}, model.GeoPoint{}
			if g != w {
				t.Fatalf("reading %d: columnar %+v, text %+v", i, g, w)
			}
		}
	})
}

func TestQueryRequestPagingValidate(t *testing.T) {
	good := QueryRequest{TypeName: "t", ToUnix: 1, Limit: 10, Cursor: "5.0"}
	if err := good.Validate(); err != nil {
		t.Errorf("good paged request: %v", err)
	}
	bad := []QueryRequest{
		{TypeName: "t", Limit: -1},
		{SensorID: "s", Cursor: "5.0"},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad case %d passed validation", i)
		}
	}
}
