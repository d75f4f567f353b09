package protocol

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
)

func sampleTransfer(t *testing.T) *MigrateTransfer {
	t.Helper()
	var s Sealer
	mk := func(seq uint64, vals ...float64) MigrateEntry {
		b := &model.Batch{
			NodeID:    "fog1/d01-s02",
			TypeName:  "traffic.flow",
			Category:  model.CategoryUrban,
			Collected: time.Unix(1700000000, 0).UTC(),
		}
		for i, v := range vals {
			b.Readings = append(b.Readings, model.Reading{
				SensorID: "sensor-1",
				TypeName: b.TypeName,
				Category: b.Category,
				Time:     b.Collected.Add(time.Duration(i) * time.Second),
				Value:    v,
			})
		}
		payload, err := s.SealSeq(nil, b, aggregate.CodecNone, seq)
		if err != nil {
			t.Fatal(err)
		}
		return MigrateEntry{Seq: seq, Payload: payload}
	}
	return &MigrateTransfer{
		TypeName:    "traffic.flow",
		From:        "fog1/d01-s02",
		To:          "fog1/d01-s03",
		TransferSeq: 99,
		Entries:     []MigrateEntry{mk(11, 1, 2, 3), mk(12, 4.5)},
		Summaries: []MigrateSummary{{
			Seq: 13,
			Push: SummaryPush{
				Origin:   "fog1/d01-s02",
				Seq:      13,
				TypeName: "traffic.flow",
				Category: model.CategoryUrban.String(),
				Windows: []SummaryWindow{{
					StartUnix: 1700000000e9,
					EndUnix:   1700000060e9,
					Summary:   aggregate.Summary{Count: 4, Sum: 10, Min: 1, Max: 4.5},
				}},
			},
		}},
		Marks: map[string][]uint64{
			"fog1/d01-s01": {3, 4, 7},
			"edge/x":       {1},
		},
	}
}

func TestMigrateTransferRoundTrip(t *testing.T) {
	in := sampleTransfer(t)
	wire, err := EncodeMigrateTransfer(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMigrateTransfer(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
	// The embedded payloads must still open as sealed envelopes with
	// their frozen sequences intact.
	for _, e := range out.Entries {
		b, _, seq, err := DecodeBatchPayloadSeq(e.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != e.Seq {
			t.Fatalf("envelope seq %d != entry seq %d", seq, e.Seq)
		}
		if b.NodeID != in.From {
			t.Fatalf("moved batch lost its origin: %q", b.NodeID)
		}
	}
}

func TestMigrateTransferNoSummariesNoMarks(t *testing.T) {
	in := sampleTransfer(t)
	in.Summaries = nil
	in.Marks = nil
	wire, err := EncodeMigrateTransfer(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMigrateTransfer(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Summaries) != 0 || out.Marks != nil {
		t.Fatalf("empty sections came back non-empty: %+v", out)
	}
}

func TestMigrateTransferValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*MigrateTransfer)
		want   string
	}{
		{"no type", func(m *MigrateTransfer) { m.TypeName = "" }, "without a type"},
		{"no source", func(m *MigrateTransfer) { m.From = "" }, "without a source"},
		{"no target", func(m *MigrateTransfer) { m.To = "" }, "without a target"},
		{"self transfer", func(m *MigrateTransfer) { m.To = m.From }, "to itself"},
		{"no sequence", func(m *MigrateTransfer) { m.TransferSeq = 0 }, "without a sequence"},
		{"entry without seq", func(m *MigrateTransfer) { m.Entries[0].Seq = 0 }, "entry 0 without a sequence"},
		{"entry without payload", func(m *MigrateTransfer) { m.Entries[1].Payload = nil }, "entry 1 without a payload"},
		{"summary without seq", func(m *MigrateTransfer) { m.Summaries[0].Seq = 0 }, "summary 0 without a sequence"},
		{"invalid push", func(m *MigrateTransfer) { m.Summaries[0].Push.Origin = "" }, "needs an origin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := sampleTransfer(t)
			tc.mutate(in)
			_, err := EncodeMigrateTransfer(in)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestMigrateTransferOversizedRejected(t *testing.T) {
	in := sampleTransfer(t)
	// Inflate one entry past the bound; encode must fail with the
	// typed error, not truncate.
	in.Entries[0].Payload = make([]byte, MaxMigrateWireSize+1)
	_, err := EncodeMigrateTransfer(in)
	var sizeErr *MigrateSizeError
	if !errors.As(err, &sizeErr) {
		t.Fatalf("encode err = %v, want *MigrateSizeError", err)
	}
	if sizeErr.Limit != MaxMigrateWireSize {
		t.Fatalf("limit = %d, want %d", sizeErr.Limit, MaxMigrateWireSize)
	}

	// An oversized payload on the receive side is rejected before
	// any decoding.
	huge := make([]byte, MaxMigrateWireSize+1)
	huge[0] = migrateMagic
	huge[1] = migrateVersion
	_, err = DecodeMigrateTransfer(huge)
	if !errors.As(err, &sizeErr) {
		t.Fatalf("decode err = %v, want *MigrateSizeError", err)
	}
}

func TestMigrateTransferDecodeGarbage(t *testing.T) {
	wire, err := EncodeMigrateTransfer(sampleTransfer(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		{migrateMagic},
		{0x00, migrateVersion},
		{migrateMagic, 0x7f},
		wire[:len(wire)/2],
		append(append([]byte(nil), wire...), 0xff),
		{migrateMagic, migrateVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for i, data := range cases {
		if _, err := DecodeMigrateTransfer(data); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}
