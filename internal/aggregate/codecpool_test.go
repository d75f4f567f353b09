package aggregate

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// Reference implementations of the pre-pooling compressors (fresh
// writer per call, exactly the code this refactor replaced), used to
// prove pooled output is byte-identical.
func legacyCompress(t *testing.T, c Codec, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	switch c {
	case CodecNone:
		return append([]byte(nil), data...)
	case CodecFlate:
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	case CodecGzip:
		w := gzip.NewWriter(&buf)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	case CodecZip:
		zw := zip.NewWriter(&buf)
		f, err := zw.Create(zipEntryName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func compressTestPayloads() [][]byte {
	line := "bcn/d1/s1/temperature/42;1496275200000000000;21.5;C;41.38000;2.17000\n"
	big := make([]byte, 0, 70*1000)
	for i := 0; i < 1000; i++ {
		big = append(big, line...)
	}
	return [][]byte{
		nil,
		[]byte(""),
		[]byte("x"),
		[]byte(line),
		big,
	}
}

// TestAppendCompressMatchesLegacy proves pooled compression emits the
// exact frame bytes of the pre-pooling fresh-writer implementation,
// for every codec, including after pool reuse.
func TestAppendCompressMatchesLegacy(t *testing.T) {
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		for pi, payload := range compressTestPayloads() {
			want := legacyCompress(t, c, payload)
			// Two rounds so the second draws reset state from the pool.
			for round := 0; round < 2; round++ {
				got, err := AppendCompress(nil, c, payload)
				if err != nil {
					t.Fatalf("%s payload %d round %d: %v", c, pi, round, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s payload %d round %d: pooled output diverges from legacy (%d vs %d bytes)",
						c, pi, round, len(got), len(want))
				}
			}
			// Append semantics: prefix preserved, suffix identical.
			prefix := []byte{1, 2, 3}
			got, err := AppendCompress(append([]byte(nil), prefix...), c, payload)
			if err != nil {
				t.Fatalf("%s payload %d: %v", c, pi, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%s payload %d: AppendCompress broke append semantics", c, pi)
			}
		}
	}
}

// TestAppendFlateBestSpeed proves the pooled BestSpeed writer emits a
// fresh flate.BestSpeed writer's bytes after pool reuse, keeps append
// semantics, and yields a frame the CodecFlate inflater opens.
func TestAppendFlateBestSpeed(t *testing.T) {
	for pi, payload := range compressTestPayloads() {
		var want bytes.Buffer
		w, err := flate.NewWriter(&want, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		prefix := []byte{1, 2, 3}
		for round := 0; round < 2; round++ {
			got, err := AppendFlateBestSpeed(append([]byte(nil), prefix...), payload)
			if err != nil {
				t.Fatalf("payload %d round %d: %v", pi, round, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
				t.Errorf("payload %d round %d: pooled output diverges from a fresh BestSpeed writer", pi, round)
			}
			out, err := AppendDecompress(nil, CodecFlate, got[len(prefix):], 0)
			if err != nil || !bytes.Equal(out, payload) {
				t.Errorf("payload %d round %d: CodecFlate round trip = %d bytes, %v", pi, round, len(out), err)
			}
		}
	}
}

// TestAppendDecompressRoundTrip exercises the append decompressors
// with dst reuse across calls.
func TestAppendDecompressRoundTrip(t *testing.T) {
	payloads := compressTestPayloads()
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		var dst []byte
		for pi, payload := range payloads {
			comp, err := Compress(c, payload)
			if err != nil {
				t.Fatal(err)
			}
			out, err := AppendDecompress(dst[:0], c, comp, 0)
			if err != nil {
				t.Fatalf("%s payload %d: %v", c, pi, err)
			}
			if !bytes.Equal(out, payload) {
				t.Errorf("%s payload %d: round trip mismatch (%d vs %d bytes)", c, pi, len(out), len(payload))
			}
			dst = out
		}
	}
}

// TestDecompressSizeLimit proves a payload whose decompressed size
// exceeds the limit fails with *SizeLimitError for every codec
// instead of exhausting memory.
func TestDecompressSizeLimit(t *testing.T) {
	// Highly compressible 1MB payload: a tiny compressed frame that
	// would inflate far past the limit below.
	payload := bytes.Repeat([]byte("all work and no play "), 50000)
	const limit = 4096
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		comp, err := Compress(c, payload)
		if err != nil {
			t.Fatal(err)
		}
		_, err = AppendDecompress(nil, c, comp, limit)
		var sizeErr *SizeLimitError
		if !errors.As(err, &sizeErr) {
			t.Fatalf("%s: want *SizeLimitError, got %v", c, err)
		}
		if sizeErr.Limit != limit || sizeErr.Codec != c {
			t.Errorf("%s: SizeLimitError = %+v, want limit %d codec %s", c, sizeErr, limit, c)
		}
		// Within the limit the same frame must still open.
		out, err := AppendDecompress(nil, c, comp, len(payload))
		if err != nil {
			t.Fatalf("%s within limit: %v", c, err)
		}
		if !bytes.Equal(out, payload) {
			t.Errorf("%s within limit: round trip mismatch", c)
		}
	}
}

// TestDecompressExactLimitAccepted: a payload that decompresses to
// exactly the configured limit is legal for every codec — the bound
// is exclusive. Incompressible data makes the output buffer's
// capacity land exactly on the limit, the boundary where an
// inclusive grow-time check used to reject the final io.EOF read.
func TestDecompressExactLimitAccepted(t *testing.T) {
	payload := make([]byte, 1<<20) // incompressible: a simple PRNG
	state := uint32(2463534242)
	for i := range payload {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		payload[i] = byte(state)
	}
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		comp, err := Compress(c, payload)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AppendDecompress(nil, c, comp, len(payload))
		if err != nil {
			t.Fatalf("%s: exact-limit payload rejected: %v", c, err)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("%s: round trip mismatch", c)
		}
		// One byte under the limit must still fail.
		if _, err := AppendDecompress(nil, c, comp, len(payload)-1); err == nil {
			t.Fatalf("%s: limit-1 accepted", c)
		}
	}
}

// TestDecompressMaxIntLimit: passing math.MaxInt to "disable" the
// bound must not overflow the max+1 capacity arithmetic (which once
// produced a negative grow and a makeslice panic on zip entries whose
// tampered header claims UncompressedSize64 == 0).
func TestDecompressMaxIntLimit(t *testing.T) {
	payload := []byte("payload that decompresses fine")
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		comp, err := Compress(c, payload)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AppendDecompress(nil, c, comp, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("%s: round trip mismatch", c)
		}
	}
	// The zero-hint + huge-max path that used to panic.
	out, err := appendReadAll(nil, bytes.NewReader(payload), 0, maxInt-1, CodecZip)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("appendReadAll zero hint: %v", err)
	}
}

// TestDecompressDefaultLimitApplied: a zero limit selects
// DefaultMaxDecompressedSize, so no caller can use it
// as a decompression bomb. Exercised indirectly: a valid payload far
// below the default must pass.
func TestDecompressDefaultLimitApplied(t *testing.T) {
	payload := []byte("small payload")
	comp, err := Compress(CodecGzip, payload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := AppendDecompress(nil, CodecGzip, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("round trip mismatch")
	}
}

// TestPooledCodecsConcurrent hammers the pooled compress/decompress
// paths from many goroutines, mirroring concurrent flush workers;
// run under -race this proves pool entries are never shared.
func TestPooledCodecsConcurrent(t *testing.T) {
	payloads := compressTestPayloads()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var dst, out []byte
			for i := 0; i < 50; i++ {
				c := []Codec{CodecFlate, CodecGzip, CodecZip}[(seed+i)%3]
				payload := payloads[(seed+i)%len(payloads)]
				var err error
				dst, err = AppendCompress(dst[:0], c, payload)
				if err != nil {
					errCh <- err
					return
				}
				out, err = AppendDecompress(out[:0], c, dst, 0)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(out, payload) {
					errCh <- fmt.Errorf("goroutine %d iter %d: round trip mismatch", seed, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
