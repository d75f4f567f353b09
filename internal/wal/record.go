package wal

import (
	"encoding/binary"
	"fmt"
)

// Binary helpers shared by the node journal codecs: uvarint-prefixed
// strings and byte slices over append-based buffers, with bounded
// reads so corrupt lengths fail instead of allocating.

// AppendUvarint appends a uvarint-encoded value.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length prefix and the slice bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ReadUvarint decodes a uvarint from the front of b and returns the
// remainder.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: corrupt uvarint")
	}
	return v, b[n:], nil
}

// ReadString decodes a length-prefixed string from the front of b and
// returns the remainder.
func ReadString(b []byte) (string, []byte, error) {
	raw, rest, err := ReadBytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

// ReadBytes decodes a length-prefixed slice from the front of b and
// returns it (aliasing b) plus the remainder.
func ReadBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("wal: corrupt length prefix %d (have %d)", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// ReadUint64 decodes a fixed 8-byte little-endian value from the front
// of b and returns the remainder.
func ReadUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("wal: corrupt uint64 (have %d bytes)", len(b))
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// AppendUint64 appends a fixed 8-byte little-endian value.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendMarkSet encodes a replay-filter dump (protocol.ReplayFilter
// Dump/Restore order contract: per-origin sequences oldest first):
// origin count, then per origin its name and sequence list. One
// encoder shared by the fog-node and cloud snapshot codecs so the two
// cannot drift.
func AppendMarkSet(dst []byte, marks map[string][]uint64) []byte {
	dst = AppendUvarint(dst, uint64(len(marks)))
	for origin, seqs := range marks {
		dst = AppendString(dst, origin)
		dst = AppendUvarint(dst, uint64(len(seqs)))
		for _, s := range seqs {
			dst = AppendUint64(dst, s)
		}
	}
	return dst
}

// ReadMarkSet decodes an AppendMarkSet payload from the front of b,
// invoking fn per (origin, seq) in encoded order, and returns the
// remainder. Counts are validated against the remaining bytes before
// any allocation, so corrupt lengths fail instead of allocating.
func ReadMarkSet(b []byte, fn func(origin string, seq uint64)) ([]byte, error) {
	origins, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < origins; i++ {
		var origin string
		origin, rest, err = ReadString(rest)
		if err != nil {
			return nil, err
		}
		var n uint64
		n, rest, err = ReadUvarint(rest)
		if err != nil {
			return nil, err
		}
		if n > uint64(len(rest))/8 {
			return nil, fmt.Errorf("wal: corrupt mark count %d (have %d bytes)", n, len(rest))
		}
		for k := uint64(0); k < n; k++ {
			var seq uint64
			seq, rest, err = ReadUint64(rest)
			if err != nil {
				return nil, err
			}
			fn(origin, seq)
		}
	}
	return rest, nil
}

// AppendDocs encodes a snapshot section of opaque documents,
// [count uvarint] { [document, uvarint-framed] }*, one document per
// item as encode renders it.
func AppendDocs[T any](dst []byte, items []T, encode func(*T) ([]byte, error)) ([]byte, error) {
	dst = AppendUvarint(dst, uint64(len(items)))
	for i := range items {
		doc, err := encode(&items[i])
		if err != nil {
			return nil, err
		}
		dst = AppendBytes(dst, doc)
	}
	return dst, nil
}

// ReadDocs decodes an AppendDocs section from the front of b, invoking
// each per document in encoded order, and returns the remainder.
func ReadDocs(b []byte, each func(doc []byte) error) ([]byte, error) {
	n, rest, err := ReadUvarint(b)
	for i := uint64(0); err == nil && i < n; i++ {
		var doc []byte
		if doc, rest, err = ReadBytes(rest); err == nil {
			err = each(doc)
		}
	}
	return rest, err
}
