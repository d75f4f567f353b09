package protocol

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
)

func sampleTransfer(t *testing.T) *MigrateTransfer {
	t.Helper()
	var s Sealer
	mk := func(seq uint64, vals ...float64) MigrateItem {
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
		return MigrateItem{Kind: 0, Payload: payload}
	}
	summary, err := EncodeJSON(SummaryPush{
		Origin:   "fog1/d01-s02",
		Seq:      13,
		TypeName: "traffic.flow",
		Category: model.CategoryUrban.String(),
		Windows: []SummaryWindow{{
			StartUnix: 1700000000e9,
			EndUnix:   1700000060e9,
			Summary:   aggregate.Summary{Count: 4, Sum: 10, Min: 1, Max: 4.5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &MigrateTransfer{
		TypeName:    "traffic.flow",
		From:        "fog1/d01-s02",
		To:          "fog1/d01-s03",
		TransferSeq: 99,
		Items:       []MigrateItem{mk(11, 1, 2, 3), mk(12, 4.5), {Kind: 1, Payload: summary}},
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
	// The embedded batch payloads must still open as sealed envelopes
	// with their frozen sequences intact.
	for i, want := range []uint64{11, 12} {
		b, _, seq, err := DecodeBatchPayloadSeq(out.Items[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("item %d: envelope seq %d, want %d", i, seq, want)
		}
		if b.NodeID != in.From {
			t.Fatalf("moved batch lost its origin: %q", b.NodeID)
		}
	}
}

func TestMigrateTransferNoSummariesNoMarks(t *testing.T) {
	in := sampleTransfer(t)
	in.Items = in.Items[:2]
	in.Marks = nil
	wire, err := EncodeMigrateTransfer(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMigrateTransfer(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 || out.Marks != nil || out.Subs != nil {
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
		{"entry without payload", func(m *MigrateTransfer) { m.Items[1].Payload = nil }, "item 1 without a payload"},
		{"subscription without document", func(m *MigrateTransfer) { m.Subs = [][]byte{nil} }, "subscription 0 without a document"},
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

// TestMigrateTransferOldVersionsRefused: the version-1 and version-2
// wires split the items into three sections and are refused with an
// error naming their version. The version-2 payload is a golden one
// its encoder wrote; the version-1 payload is a committed corpus file.
func TestMigrateTransferOldVersionsRefused(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "migrate_v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	v1 := fuzzCorpusBytes(t, filepath.Join("testdata", "fuzz", "FuzzMigratePayload", "valid-full"))
	for version, data := range map[byte][]byte{1: v1, 2: v2} {
		if data[1] != version {
			t.Fatalf("the version-%d payload says version %d", version, data[1])
		}
		_, err := DecodeMigrateTransfer(data)
		if !errors.Is(err, ErrMigrateVersion) {
			t.Fatalf("version %d: err = %v, want ErrMigrateVersion", version, err)
		}
		if want := fmt.Sprintf("version %d", version); !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: error %q does not name %q", version, err, want)
		}
	}
}

// fuzzCorpusBytes reads the []byte value of a one-value go-fuzz
// corpus file.
func fuzzCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s is not a []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

func TestMigrateTransferOversizedRejected(t *testing.T) {
	in := sampleTransfer(t)
	// Inflate one item past the bound; encode must fail with the
	// typed error, not truncate.
	in.Items[0].Payload = make([]byte, MaxMigrateWireSize+1)
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
