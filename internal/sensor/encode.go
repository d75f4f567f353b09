package sensor

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"f2c/internal/model"
)

// The wire format is a compact Sentilo-like text encoding:
//
//	#f2c;<nodeID>;<type>;<category>;<collectedUnixNano>;<count>
//	<sensorID>;<unixNano>;<value>;<unit>;<lat>;<lon>
//	...
//
// A text format is deliberate: the paper compresses observation
// payloads with Zip at fog layer 1 and reports a ~78% size reduction,
// which only makes sense for a redundant textual encoding.
//
// Encoding is append-based (AppendBatch) and decoding is an in-place
// index parser, so the seal/open path allocates nothing beyond the
// decoded readings themselves: batch sealing is the hottest CPU path
// in the hierarchy and runs from many concurrent flush workers.
//
// Numbers take exact fast paths (number.go) with strconv as their
// fallback, and the format is byte for byte what strconv writes:
// lat/lon print as strconv.AppendFloat(v, 'f', 5, 64) and the value in
// its shortest form ('f', -1). A fixed precision sends strconv through
// its multi-precision decimal (bigFtoa) on every call, which would make
// the two coordinates the largest single cost of sealing a batch, so
// they are scaled and rounded in 128-bit integer math instead.
// Decoding reads plain decimals as float64(m)/10^k and timestamps in
// place.

const headerMagic = "#f2c"

// AppendBatch appends the wire encoding of b to dst and returns the
// extended slice. Output is byte-identical to EncodeBatch.
func AppendBatch(dst []byte, b *model.Batch) []byte {
	dst = append(dst, headerMagic...)
	dst = append(dst, ';')
	dst = append(dst, b.NodeID...)
	dst = append(dst, ';')
	dst = append(dst, b.TypeName...)
	dst = append(dst, ';')
	dst = append(dst, b.Category.String()...)
	dst = append(dst, ';')
	dst = strconv.AppendInt(dst, b.Collected.UnixNano(), 10)
	dst = append(dst, ';')
	dst = strconv.AppendInt(dst, int64(len(b.Readings)), 10)
	dst = append(dst, '\n')
	for i := range b.Readings {
		r := &b.Readings[i]
		dst = append(dst, r.SensorID...)
		dst = append(dst, ';')
		dst = strconv.AppendInt(dst, r.Time.UnixNano(), 10)
		dst = append(dst, ';')
		dst = strconv.AppendFloat(dst, r.Value, 'f', -1, 64)
		dst = append(dst, ';')
		dst = append(dst, r.Unit...)
		dst = append(dst, ';')
		dst = appendCoordinate(dst, r.Location.Lat)
		dst = append(dst, ';')
		dst = appendCoordinate(dst, r.Location.Lon)
		dst = append(dst, '\n')
	}
	return dst
}

// EncodeBatch renders a batch in the wire format as a fresh slice.
func EncodeBatch(b *model.Batch) []byte {
	return AppendBatch(make([]byte, 0, 64+len(b.Readings)*48), b)
}

// splitFields slices line into exactly want ';'-separated fields
// without allocating.
func splitFields(fields [][]byte, line []byte, want int) ([][]byte, bool) {
	fields = fields[:0]
	for len(fields) < want-1 {
		i := bytes.IndexByte(line, ';')
		if i < 0 {
			return fields, false
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	if bytes.IndexByte(line, ';') >= 0 {
		return fields, false
	}
	return append(fields, line), true
}

// DecodeBatch parses the wire format produced by EncodeBatch. Unlike
// the former bufio.Scanner implementation it walks the payload by
// index — no per-line string, no strings.Split, and no upper bound on
// line or payload length.
func DecodeBatch(data []byte) (*model.Batch, error) {
	rest := data
	line, rest, ok := nextLine(rest)
	if !ok {
		return nil, fmt.Errorf("decode batch: empty payload")
	}
	var fieldArr [6][]byte
	fields, ok := splitFields(fieldArr[:0], line, 6)
	if !ok || string(fields[0]) != headerMagic {
		return nil, fmt.Errorf("decode batch: malformed header %q", line)
	}
	cat, err := model.ParseCategory(string(fields[3]))
	if err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	collected, err := parseInt(fields[4])
	if err != nil {
		return nil, fmt.Errorf("decode batch: collected time: %w", err)
	}
	count, err := strconv.Atoi(string(fields[5]))
	if err != nil || count < 0 {
		return nil, fmt.Errorf("decode batch: bad count %q", fields[5])
	}
	// A lying header count must not pre-allocate unboundedly: each
	// reading line needs at least 12 payload bytes (6 fields, 5
	// separators, newline), and a Reading is ~100 in-memory bytes, so
	// bounding by len(data) alone would still allow ~100x
	// amplification.
	capHint := count
	if maxLines := len(data)/12 + 1; capHint > maxLines {
		capHint = maxLines
	}
	b := &model.Batch{
		NodeID:    string(fields[1]),
		TypeName:  string(fields[2]),
		Category:  cat,
		Collected: unixNano(collected),
		Readings:  make([]model.Reading, 0, capHint),
	}
	// Sensor IDs repeat across collection rounds and units are shared
	// by the whole batch: interning collapses their string
	// allocations to one per distinct value. The map is sized for the
	// distinct strings a batch carries (tens), not for its rows, and
	// grows when a batch has more.
	intern := make(map[string]string, min(count+1, 32))
	for {
		line, rest, ok = nextLine(rest)
		if !ok {
			break
		}
		if len(line) == 0 {
			continue
		}
		r, err := decodeLine(fields, line, b.TypeName, cat, intern)
		if err != nil {
			return nil, fmt.Errorf("decode batch: line %d: %w", len(b.Readings)+2, err)
		}
		b.Readings = append(b.Readings, r)
	}
	if len(b.Readings) != count {
		return nil, fmt.Errorf("decode batch: header count %d != %d readings", count, len(b.Readings))
	}
	return b, nil
}

// nextLine returns the next line (without terminator) and the
// remaining data. A final unterminated line is returned as-is, and a
// trailing '\r' is dropped — the same framing bufio.ScanLines applied
// in the scanner-based decoder this replaces.
func nextLine(data []byte) (line, rest []byte, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line, rest = data, nil
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest, true
}

func internString(intern map[string]string, b []byte) string {
	if s, ok := intern[string(b)]; ok { // no-alloc map lookup
		return s
	}
	s := string(b)
	intern[s] = s
	return s
}

func decodeLine(fields [][]byte, line []byte, typeName string, cat model.Category, intern map[string]string) (model.Reading, error) {
	parts, ok := splitFields(fields, line, 6)
	if !ok {
		n := bytes.Count(line, []byte{';'}) + 1
		return model.Reading{}, fmt.Errorf("want 6 fields, got %d", n)
	}
	ts, err := parseInt(parts[1])
	if err != nil {
		return model.Reading{}, fmt.Errorf("timestamp: %w", err)
	}
	val, err := parseFloat(parts[2])
	if err != nil {
		return model.Reading{}, fmt.Errorf("value: %w", err)
	}
	lat, err := parseFloat(parts[4])
	if err != nil {
		return model.Reading{}, fmt.Errorf("lat: %w", err)
	}
	lon, err := parseFloat(parts[5])
	if err != nil {
		return model.Reading{}, fmt.Errorf("lon: %w", err)
	}
	return model.Reading{
		SensorID: internString(intern, parts[0]),
		TypeName: typeName,
		Category: cat,
		Time:     unixNano(ts),
		Value:    val,
		Unit:     internString(intern, parts[3]),
		Location: model.GeoPoint{Lat: lat, Lon: lon},
	}, nil
}

func unixNano(ns int64) time.Time { return time.Unix(0, ns) }
