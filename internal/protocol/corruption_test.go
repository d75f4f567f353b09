package protocol

import (
	"errors"
	"strings"
	"testing"

	"f2c/internal/aggregate"
)

// TestDecodeBatchPayloadCorruption walks every way an envelope can be
// damaged in transit and asserts each is rejected with a diagnostic
// error rather than a panic or a silently wrong batch.
func TestDecodeBatchPayloadCorruption(t *testing.T) {
	good, err := EncodeBatchPayload(sampleBatch(), aggregate.CodecGzip)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantMsg string
	}{
		{"empty payload", func(p []byte) []byte { return nil }, "too short"},
		{"truncated header magic only", func(p []byte) []byte { return p[:1] }, "too short"},
		{"truncated header two bytes", func(p []byte) []byte { return p[:2] }, "too short"},
		{"bad magic", func(p []byte) []byte { p[0] = 0x42; return p }, "bad magic"},
		{"bad version", func(p []byte) []byte { p[1] = 99; return p }, "unsupported version"},
		{"wrong codec byte zero", func(p []byte) []byte { p[2] = 0; return p }, "invalid codec"},
		{"wrong codec byte out of range", func(p []byte) []byte { p[2] = 200; return p }, "invalid codec"},
		{"codec byte lies about framing", func(p []byte) []byte {
			p[2] = byte(aggregate.CodecZip) // body is gzip, header claims zip
			return p
		}, "open batch"},
		{"truncated body", func(p []byte) []byte { return p[:len(p)-7] }, "open batch"},
		{"body cut to header", func(p []byte) []byte { return p[:3] }, "open batch"},
		{"flipped body byte", func(p []byte) []byte { p[len(p)/2] ^= 0xFF; return p }, "open batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := tc.mangle(append([]byte(nil), good...))
			b, _, err := DecodeBatchPayload(payload)
			if err == nil {
				t.Fatalf("corrupt payload accepted: %+v", b)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestDecodeBatchPayloadWireSizeLimit wires the envelope opener's
// max-decompressed-size guard: a well-formed but oversized batch
// fails with *aggregate.SizeLimitError.
func TestDecodeBatchPayloadWireSizeLimit(t *testing.T) {
	payload, err := EncodeBatchPayload(sampleBatch(), aggregate.CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = decodeBatchPayload(payload, 8)
	var sizeErr *aggregate.SizeLimitError
	if !errors.As(err, &sizeErr) {
		t.Fatalf("want *aggregate.SizeLimitError, got %v", err)
	}
}

// FuzzDecodeBatchPayload hammers the envelope opener with arbitrary
// bytes: it must never panic, and when it does accept a payload, the
// batch must re-seal and re-open cleanly.
func FuzzDecodeBatchPayload(f *testing.F) {
	for _, codec := range []aggregate.Codec{aggregate.CodecNone, aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		payload, err := EncodeBatchPayload(sampleBatch(), codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{0xF2, 1, 2})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, codec, err := DecodeBatchPayload(payload)
		if err != nil {
			return
		}
		resealed, err := EncodeBatchPayload(b, codec)
		if err != nil {
			t.Fatalf("re-seal of accepted batch failed: %v", err)
		}
		b2, codec2, err := DecodeBatchPayload(resealed)
		if err != nil {
			t.Fatalf("re-open of re-sealed batch failed: %v", err)
		}
		if codec2 != codec || b2.NodeID != b.NodeID || len(b2.Readings) != len(b.Readings) {
			t.Fatalf("round trip drifted: %v/%d vs %v/%d", codec2, len(b2.Readings), codec, len(b.Readings))
		}
	})
}
