package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay proves the replay contract on arbitrary log images:
// whatever the file holds — garbage, torn frames, flipped bits — Open
// never panics, replays only checksum-intact frames, and truncates the
// file so a subsequent append round-trips cleanly.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a wal file at all"))
	f.Add(AppendFrame(nil, []byte("one intact record")))
	// Intact record followed by a torn frame.
	torn := AppendFrame(nil, []byte("intact"))
	torn = append(torn, AppendFrame(nil, []byte("torn-off"))[:11]...)
	f.Add(torn)
	// Bit flip inside the second record's payload.
	flipped := AppendFrame(AppendFrame(nil, []byte("first")), []byte("second"))
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	// Length prefix far beyond the file (and beyond MaxRecordSize).
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, img []byte) {
		// Stream replay never panics and yields only intact frames.
		streamed, err := ReplayReader(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("ReplayReader: %v", err)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0"), img, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open on fuzzed image: %v", err)
		}
		recovered := s.Records()
		if len(recovered) != len(streamed) {
			t.Fatalf("file replay %d records, stream replay %d", len(recovered), len(streamed))
		}
		for i := range streamed {
			if !bytes.Equal(recovered[i], streamed[i]) {
				t.Fatalf("record %d diverges between file and stream replay", i)
			}
		}

		// The recovered prefix is a committed prefix: appending after
		// recovery and reopening must replay prefix + the new record.
		if err := s.Append([]byte("post-corruption append")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		again := re.Records()
		if len(again) != len(recovered)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(again), len(recovered)+1)
		}
		if string(again[len(again)-1]) != "post-corruption append" {
			t.Fatalf("appended record lost after recovery")
		}
	})
}

// ReplayReader decodes frames from a stream without file access — the
// fuzz surface proving that arbitrary bytes replay a consistent prefix
// and never panic.
func ReplayReader(r io.Reader) ([][]byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var records [][]byte
	off := 0
	for {
		rec, next, ok := nextFrame(raw, off)
		if !ok {
			return records, nil
		}
		records = append(records, rec)
		off = next
	}
}
