package protocol

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
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
// allocate: a body inflating past maxPageWireSize fails with
// *aggregate.SizeLimitError, and a page over DefaultPageLimit
// readings is refused while a full page opens.
func TestQueryPageBounds(t *testing.T) {
	header := []byte{pageMagic, pageVersion, pageFlagFound, 0}
	bomb, err := aggregate.AppendFlateBestSpeed(append(append([]byte(nil), header...), envelopeMagic, envelopeVersion, byte(aggregate.CodecFlate)),
		make([]byte, maxPageWireSize+1))
	if err != nil {
		t.Fatal(err)
	}
	var sizeErr *aggregate.SizeLimitError
	if _, err := DecodeQueryPage(bomb); !errors.As(err, &sizeErr) || sizeErr.Limit != maxPageWireSize {
		t.Errorf("deflate bomb of %d bytes: err = %v, want *aggregate.SizeLimitError at %d", len(bomb), err, maxPageWireSize)
	}

	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	for _, n := range []int{DefaultPageLimit, DefaultPageLimit + 1} {
		rs := pageReadings(n, at)
		b := &model.Batch{NodeID: "n", TypeName: "traffic", Category: model.CategoryUrban, Collected: at, Readings: rs}
		payload, err := AppendBatchPayload(append([]byte(nil), header...), b, pageCodec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodeQueryPage(payload)
		if n <= DefaultPageLimit && (err != nil || len(p.Readings) != n) {
			t.Errorf("%d-reading page: %d readings, %v", n, len(p.Readings), err)
		}
		if n > DefaultPageLimit && err == nil {
			t.Errorf("%d-reading page accepted", n)
		}
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
	golden, err := os.ReadFile(goldenPageFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
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
