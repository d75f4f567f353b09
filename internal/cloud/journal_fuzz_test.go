package cloud

import (
	"testing"

	"f2c/internal/aggregate"
	"f2c/internal/protocol"
)

// FuzzCloudSnapshotDecode proves that applying arbitrary bytes to a
// cloud as a snapshot body and a journal record never panics — corrupt
// counts and truncated fields must fail with errors, not allocate or
// crash (CRC framing upstream makes this unlikely, not impossible).
func FuzzCloudSnapshotDecode(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{cloudSnapshotVersion}, []byte{1}) // retired pre-numbering preserve
	// Huge origin/record/hop counts with no bytes behind them.
	f.Add([]byte{cloudSnapshotVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		[]byte{recExpire, 1, 2, 3})
	valid, err := encodeCloudSnapshot(nil, map[string][]uint64{"fog2/d01": {1, 2}}, nil, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(valid, []byte{recPreserve2, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(valid, []byte{recAlert, 0xF5, 1, 0xFF})
	// Held degraded windows, and a summary-push record.
	windows := []protocol.SummaryPush{{TypeName: "traffic", Windows: []protocol.SummaryWindow{
		{StartUnix: 60e9, EndUnix: 120e9, Summary: aggregate.Summary{Count: 3, Sum: 6, Min: 1, Max: 3}},
	}}}
	v4, err := encodeCloudSnapshot(nil, nil, nil, nil, windows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4, append([]byte{recSummary, 2}, "{}"...))

	f.Fuzz(func(t *testing.T, snap, rec []byte) {
		n, err := New(Config{ID: "cloud"})
		if err != nil {
			t.Fatal(err)
		}
		_ = n.restore(snap)
		_ = n.replayRecord(rec)
	})
}
