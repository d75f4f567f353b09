package aggregate

import (
	"fmt"
)

// Codec selects a compression format for upward batch transfers. The
// paper uses the Zip format (PKWARE) at fog layer 1 and reports ~78%
// size reduction on Sentilo payloads; flate and gzip are provided as
// lighter-framing alternatives with the same deflate core.
type Codec int

const (
	// CodecNone disables compression (ablation baseline).
	CodecNone Codec = iota + 1
	// CodecFlate is raw DEFLATE (RFC 1951), minimal framing.
	CodecFlate
	// CodecGzip is gzip (RFC 1952).
	CodecGzip
	// CodecZip is a single-entry PKWARE Zip archive, matching the
	// paper's §V.B experiment.
	CodecZip
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	case CodecGzip:
		return "gzip"
	case CodecZip:
		return "zip"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// Valid reports whether c is a known codec.
func (c Codec) Valid() bool { return c >= CodecNone && c <= CodecZip }

// zipEntryName is the single archive member used by CodecZip.
const zipEntryName = "payload"

// Compress encodes data with the codec at the default compression
// level, returning a freshly allocated frame. Hot paths should prefer
// AppendCompress, which reuses pooled encoder state and appends into
// a caller-supplied buffer.
func Compress(c Codec, data []byte) ([]byte, error) {
	out, err := AppendCompress(make([]byte, 0, compressedSizeGuess(c, len(data))), c, data)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compressedSizeGuess pre-sizes a Compress output buffer: framed
// codecs carry a fixed overhead, and deflate output on redundant
// sensor text lands well below the input size.
func compressedSizeGuess(c Codec, n int) int {
	if c == CodecNone {
		return n
	}
	return n/2 + 64
}

// Ratio returns compressed/original size (the paper's "format factor"
// complement: a ratio of 0.22 is the published ~78% efficiency).
func Ratio(original, compressed int) float64 {
	if original <= 0 {
		return 1
	}
	return float64(compressed) / float64(original)
}

// SavedShare returns the fraction of bytes removed by compression.
func SavedShare(original, compressed int) float64 {
	return 1 - Ratio(original, compressed)
}
