package protocol

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzMigratePayload hammers the migration wire format: arbitrary
// bytes must never panic the decoder, every accepted payload must
// round-trip losslessly through encode/decode, and oversized
// transfers must be rejected with the typed *MigrateSizeError. Seed
// corpora live under testdata/fuzz/FuzzMigratePayload; CI runs the
// corpus as a regression test via `go test -run '^Fuzz'`.
func FuzzMigratePayload(f *testing.F) {
	// Minimal structural seeds; the committed corpus carries full
	// valid transfers and truncations of them.
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
