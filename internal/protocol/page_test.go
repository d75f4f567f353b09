package protocol

import (
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
		}
	}
	return out
}

func TestQueryPageRoundTrip(t *testing.T) {
	at := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	for _, codec := range []aggregate.Codec{aggregate.CodecNone, aggregate.CodecZip} {
		page := QueryPage{Found: true, NextCursor: "1496318400000000000.2", Readings: pageReadings(5, at)}
		payload, err := EncodeQueryPage("fog1/d01-s01", page, codec)
		if err != nil {
			t.Fatalf("codec %v: %v", codec, err)
		}
		got, err := DecodeQueryPage(payload)
		if err != nil {
			t.Fatalf("codec %v: %v", codec, err)
		}
		if !got.Found || got.NextCursor != page.NextCursor || got.NextCursor == "" {
			t.Errorf("codec %v: page = %+v", codec, got)
		}
		if len(got.Readings) != 5 {
			t.Fatalf("codec %v: readings = %d", codec, len(got.Readings))
		}
		for i := range got.Readings {
			if !got.Readings[i].Time.Equal(page.Readings[i].Time) || got.Readings[i].Value != page.Readings[i].Value {
				t.Errorf("codec %v: reading %d = %+v", codec, i, got.Readings[i])
			}
		}
	}
}

func TestQueryPageEmpty(t *testing.T) {
	payload, err := EncodeQueryPage("cloud", QueryPage{}, aggregate.CodecZip)
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
	good, err := EncodeQueryPage("n", QueryPage{Found: true, Readings: pageReadings(2, at)}, aggregate.CodecZip)
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
