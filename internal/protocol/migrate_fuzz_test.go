package protocol

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzMigratePayload hammers the migration wire format: arbitrary
// bytes must never panic the decoder, only version 3 may decode, every
// accepted payload must round-trip losslessly through encode/decode,
// and oversized transfers must be rejected with the typed
// *MigrateSizeError. Seed corpora live under
// testdata/fuzz/FuzzMigratePayload: v3-* is a full chunk (an item of
// each kind, marks, a subscription) and truncations of it; the seed-*
// and valid-* files are version-1 chunks, kept as inputs that must be
// refused. CI runs the corpus as a regression test via
// `go test -run '^Fuzz'`.
func FuzzMigratePayload(f *testing.F) {
	// Minimal structural seeds; the committed corpus carries a full
	// valid transfer and truncations of it.
	f.Add([]byte{})
	f.Add([]byte{migrateMagic})
	f.Add([]byte{migrateMagic, migrateVersion})
	f.Add([]byte{migrateMagic, migrateVersion, 0x01, 'a'})
	f.Add([]byte{0xF2, 0x02, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeMigrateTransfer(data)
		if err != nil {
			if len(data) > MaxMigrateWireSize {
				var sizeErr *MigrateSizeError
				if !errors.As(err, &sizeErr) {
					t.Fatalf("oversized payload rejected with %T, want *MigrateSizeError", err)
				}
			}
			return
		}
		if data[1] != migrateVersion {
			t.Fatalf("a version-%d payload decoded", data[1])
		}
		// Accepted payloads must survive a lossless round trip.
		wire, err := EncodeMigrateTransfer(decoded)
		if err != nil {
			t.Fatalf("re-encode of accepted transfer failed: %v", err)
		}
		again, err := DecodeMigrateTransfer(wire)
		if err != nil {
			t.Fatalf("re-decode of accepted transfer failed: %v", err)
		}
		if !reflect.DeepEqual(decoded, again) {
			t.Fatalf("round trip mismatch:\nfirst:  %+v\nsecond: %+v", decoded, again)
		}
	})
}
