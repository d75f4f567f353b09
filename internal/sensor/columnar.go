package sensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"f2c/internal/model"
)

// Columnar batch encoding — one of the richer aggregation options the
// paper defers to future work ("we will explore more options related
// to data aggregation"). Instead of one text line per reading, the
// batch is stored column-wise with delta compression: sensor IDs via
// a shared dictionary, timestamps as varint deltas (periodic
// collection makes consecutive deltas tiny), and values as float64
// bit patterns. The result compresses far better than row-oriented
// text and is already several times smaller before any codec runs.
//
// Layout (all integers varint unless stated):
//
//	magic "F2CC", version byte
//	nodeID, typeName: length-prefixed strings
//	category byte, collected unix-nano (fixed 8 bytes)
//	count
//	dictionary: nDict, then length-prefixed sensor IDs
//	units: nUnits, then length-prefixed units
//	per reading: dict index, time delta (from previous reading),
//	             value bits XOR previous value bits (varint),
//	             unit dict index, then lat and lon
//
// The versions differ only in the lat/lon pair. Version 1 stores each
// coordinate as a float32 (fixed 4 bytes); segment blocks are written
// in it. Version 2 stores each as the text wire carries it: the
// uvarint of m<<1 | sign, where m is |v|*10^5 rounded half-to-even,
// the five-decimal integer the text encoder prints, and the sign bit
// survives m = 0. It decodes as float64(m)/10^5, negated when the
// sign is set — the text decoder's own arithmetic — so a reading opens
// bit for bit as it would from the text wire. What has no such m
// (NaN, ±Inf, m >= 2^53) is the escape value geoEscape followed by
// the float64 (fixed 8 bytes) the text wire yields for it. Query pages
// are written in version 2. The decoder reads both versions.

const (
	columnarMagic = "F2CC"
	// columnarVersion is the float32-coordinate layout of segment
	// blocks; columnarExact is the layout exact to the text wire.
	columnarVersion = 1
	columnarExact   = 2
	// geoEscape marks a version-2 coordinate carried as a float64. It
	// is one past the largest m<<1 | sign with m < 2^53.
	geoEscape = 1 << 54
)

// IsColumnar reports whether data opens with the columnar magic.
func IsColumnar(data []byte) bool {
	return len(data) >= len(columnarMagic) && string(data[:len(columnarMagic)]) == columnarMagic
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBatchColumnar appends the columnar delta encoding of b to dst
// and returns the extended slice, in the version-1 layout segment
// blocks use: coordinates as float32.
func AppendBatchColumnar(dst []byte, b *model.Batch) []byte {
	return appendColumnar(dst, b, columnarVersion)
}

// AppendBatchColumnarExact appends the version-2 columnar encoding of
// b: every field opens bit for bit as it would after a trip through
// the text wire (AppendBatch, DecodeBatch), except that a NaN value
// keeps its payload.
func AppendBatchColumnarExact(dst []byte, b *model.Batch) []byte {
	return appendColumnar(dst, b, columnarExact)
}

func appendColumnar(dst []byte, b *model.Batch, version byte) []byte {
	dst = append(dst, columnarMagic...)
	dst = append(dst, version)
	dst = appendString(dst, b.NodeID)
	dst = appendString(dst, b.TypeName)
	dst = append(dst, byte(b.Category))
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(b.Collected.UnixNano()))
	dst = append(dst, ts[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(b.Readings)))

	// Sensor-ID and unit dictionaries (dictionaries.append). A
	// one-reading batch (a WAL-snapshot latest entry) has one-entry
	// dictionaries and every index 0, which is what a nil map reads as,
	// so it skips the maps and slices.
	var idIdx, unitIdx map[string]uint64
	if len(b.Readings) == 1 {
		dst = binary.AppendUvarint(dst, 1)
		dst = appendString(dst, b.Readings[0].SensorID)
		dst = binary.AppendUvarint(dst, 1)
		dst = appendString(dst, b.Readings[0].Unit)
	} else {
		d := dictPool.Get().(*dictionaries)
		defer d.release()
		dst = d.append(dst, b.Readings, version)
		idIdx, unitIdx = d.idIdx, d.unitIdx
	}

	prevTime := b.Collected.UnixNano()
	var prevBits, unit uint64
	for i := range b.Readings {
		r := &b.Readings[i]
		dst = binary.AppendUvarint(dst, idIdx[r.SensorID])
		t := r.Time.UnixNano()
		dst = binary.AppendVarint(dst, t-prevTime)
		prevTime = t
		bits := math.Float64bits(r.Value)
		dst = binary.AppendUvarint(dst, bits^prevBits)
		prevBits = bits
		if i == 0 || r.Unit != b.Readings[i-1].Unit {
			unit = unitIdx[r.Unit]
		}
		dst = binary.AppendUvarint(dst, unit)
		if version == columnarVersion {
			var geo [8]byte
			binary.BigEndian.PutUint32(geo[:4], math.Float32bits(float32(r.Location.Lat)))
			binary.BigEndian.PutUint32(geo[4:], math.Float32bits(float32(r.Location.Lon)))
			dst = append(dst, geo[:]...)
			continue
		}
		dst = appendExactCoordinate(dst, r.Location.Lat)
		dst = appendExactCoordinate(dst, r.Location.Lon)
	}
	return dst
}

// appendExactCoordinate appends a version-2 coordinate: the text
// wire's five-decimal integer and sign, or the escape and the float64
// the text wire yields.
func appendExactCoordinate(dst []byte, v float64) []byte {
	if n, neg, ok := fixedCoordinate(v); ok && n < 1<<53 {
		u := n << 1
		if neg {
			u |= 1
		}
		return binary.AppendUvarint(dst, u)
	}
	w, _ := parseFloat(appendCoordinate(nil, v)) // strconv parses what strconv printed
	dst = binary.AppendUvarint(dst, geoEscape)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(w))
}

// dictionaries is the scratch a batch's sensor-ID and unit
// dictionaries are built in, pooled so that a page or block of a
// thousand sensors does not grow a map of a thousand entries anew.
type dictionaries struct {
	idIdx, unitIdx map[string]uint64
	ids, units     []string
}

// maxPooledDictionary bounds the sensor IDs a pooled dictionaries
// keeps room for: one outsized batch must not pin its map.
const maxPooledDictionary = 4096

var dictPool = sync.Pool{New: func() any {
	return &dictionaries{idIdx: make(map[string]uint64), unitIdx: make(map[string]uint64)}
}}

func (d *dictionaries) release() {
	if len(d.ids) > maxPooledDictionary {
		return
	}
	clear(d.idIdx)
	clear(d.unitIdx)
	clear(d.ids)
	clear(d.units)
	d.ids, d.units = d.ids[:0], d.units[:0]
	dictPool.Put(d)
}

// append builds the dictionaries of rs, appends them to dst and keeps
// each entry's index in idIdx and unitIdx. Version 1 sorts them;
// version 2 keeps first-appearance order, which is as deterministic
// and spares a page of a thousand sensors the sort.
func (d *dictionaries) append(dst []byte, rs []model.Reading, version byte) []byte {
	for i := range rs {
		if _, ok := d.idIdx[rs[i].SensorID]; !ok {
			d.idIdx[rs[i].SensorID] = uint64(len(d.ids))
			d.ids = append(d.ids, rs[i].SensorID)
		}
		if i > 0 && rs[i].Unit == rs[i-1].Unit {
			continue
		}
		if _, ok := d.unitIdx[rs[i].Unit]; !ok {
			d.unitIdx[rs[i].Unit] = uint64(len(d.units))
			d.units = append(d.units, rs[i].Unit)
		}
	}
	if version == columnarVersion {
		sort.Strings(d.ids)
		for i, id := range d.ids {
			d.idIdx[id] = uint64(i)
		}
		sort.Strings(d.units)
		for i, u := range d.units {
			d.unitIdx[u] = uint64(i)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.ids)))
	for _, id := range d.ids {
		dst = appendString(dst, id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.units)))
	for _, u := range d.units {
		dst = appendString(dst, u)
	}
	return dst
}

type columnarReader struct {
	data []byte
	off  int
}

func (r *columnarReader) bytes(n int) ([]byte, error) {
	if r.off+n > len(r.data) {
		return nil, fmt.Errorf("columnar: truncated at offset %d (need %d bytes)", r.off, n)
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *columnarReader) uvarint() (uint64, error) {
	if r.off < len(r.data) && r.data[r.off] < 0x80 { // most indexes and deltas are one byte
		r.off++
		return uint64(r.data[r.off-1]), nil
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("columnar: bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *columnarReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("columnar: bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// exactCoordinate reads a version-2 coordinate.
func (r *columnarReader) exactCoordinate() (float64, error) {
	u, err := r.uvarint()
	switch {
	case err != nil:
		return 0, err
	case u < geoEscape:
		v := float64(u>>1) / coordScale
		if u&1 != 0 {
			v = -v
		}
		return v, nil
	case u == geoEscape:
		b, err := r.bytes(8)
		if err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
	}
	return 0, fmt.Errorf("columnar: bad coordinate %d at offset %d", u, r.off)
}

func (r *columnarReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("columnar: string length %d overruns payload", n)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// columnarHeader is the batch-level part of a columnar payload: what
// DecodeBatchColumnar returns beside the readings. Count is the number
// of readings the payload encodes, before any range filter.
type columnarHeader struct {
	NodeID    string
	TypeName  string
	Category  model.Category
	Collected time.Time
	Count     int
}

// columnarBody is a columnar payload opened up to its first reading:
// header and dictionaries parsed, rows still encoded.
type columnarBody struct {
	r       columnarReader
	version byte
	hdr     columnarHeader
	ids     []string
	units   []string
}

// openColumnar parses the header and both dictionaries.
func openColumnar(data []byte) (cb columnarBody, err error) {
	cb.r.data = data
	r := &cb.r
	magic, err := r.bytes(len(columnarMagic))
	if err != nil || string(magic) != columnarMagic {
		return cb, fmt.Errorf("columnar: bad magic")
	}
	ver, err := r.bytes(1)
	if err != nil || (ver[0] != columnarVersion && ver[0] != columnarExact) {
		return cb, fmt.Errorf("columnar: unsupported version")
	}
	cb.version = ver[0]
	if cb.hdr.NodeID, err = r.str(); err != nil {
		return cb, err
	}
	if cb.hdr.TypeName, err = r.str(); err != nil {
		return cb, err
	}
	catByte, err := r.bytes(1)
	if err != nil {
		return cb, err
	}
	cb.hdr.Category = model.Category(catByte[0])
	if !cb.hdr.Category.Valid() {
		return cb, fmt.Errorf("columnar: invalid category %d", catByte[0])
	}
	tsRaw, err := r.bytes(8)
	if err != nil {
		return cb, err
	}
	cb.hdr.Collected = unixNano(int64(binary.BigEndian.Uint64(tsRaw)))
	count, err := r.uvarint()
	if err != nil {
		return cb, err
	}
	if count > uint64(len(data)) {
		return cb, fmt.Errorf("columnar: count %d exceeds payload bound", count)
	}
	cb.hdr.Count = int(count)

	nDict, err := r.uvarint()
	if err != nil {
		return cb, err
	}
	if nDict > count && nDict > 0 && count > 0 {
		return cb, fmt.Errorf("columnar: dictionary size %d exceeds count %d", nDict, count)
	}
	// Every dictionary entry costs at least one payload byte, so a
	// size beyond the remaining bytes is corrupt; without this bound a
	// hostile header (count 0, huge nDict) forces a massive
	// allocation before any entry fails to parse.
	if nDict > uint64(len(data)-r.off) {
		return cb, fmt.Errorf("columnar: dictionary size %d overruns payload", nDict)
	}
	cb.ids = make([]string, nDict)
	for i := range cb.ids {
		if cb.ids[i], err = r.str(); err != nil {
			return cb, err
		}
	}
	nUnits, err := r.uvarint()
	if err != nil {
		return cb, err
	}
	if nUnits > uint64(len(data)-r.off) {
		return cb, fmt.Errorf("columnar: unit dictionary size %d overruns payload", nUnits)
	}
	cb.units = make([]string, nUnits)
	for i := range cb.units {
		if cb.units[i], err = r.str(); err != nil {
			return cb, err
		}
	}
	return cb, nil
}

// appendRows walks every encoded row — so a damaged payload errors no
// matter the bounds — and appends to dst the rows timed within
// [fromNs, toNs], at most max of them when max > 0. Rows outside the
// bounds or past max are validated but never materialised.
func (cb *columnarBody) appendRows(dst []model.Reading, fromNs, toNs int64, max int) ([]model.Reading, error) {
	r := &cb.r
	n0 := len(dst)
	prevTime := cb.hdr.Collected.UnixNano()
	var prevBits uint64
	for i := 0; i < cb.hdr.Count; i++ {
		idx, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		if idx >= uint64(len(cb.ids)) {
			return dst, fmt.Errorf("columnar: sensor index %d out of range", idx)
		}
		dt, err := r.varint()
		if err != nil {
			return dst, err
		}
		prevTime += dt
		bitsDelta, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		prevBits ^= bitsDelta
		uIdx, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		if uIdx >= uint64(len(cb.units)) {
			return dst, fmt.Errorf("columnar: unit index %d out of range", uIdx)
		}
		var lat, lon float64
		if cb.version == columnarVersion {
			geo, err := r.bytes(8)
			if err != nil {
				return dst, err
			}
			lat = float64(math.Float32frombits(binary.BigEndian.Uint32(geo[:4])))
			lon = float64(math.Float32frombits(binary.BigEndian.Uint32(geo[4:])))
		} else {
			if lat, err = r.exactCoordinate(); err != nil {
				return dst, err
			}
			if lon, err = r.exactCoordinate(); err != nil {
				return dst, err
			}
		}
		if prevTime < fromNs || prevTime > toNs || (max > 0 && len(dst)-n0 >= max) {
			continue
		}
		dst = append(dst, model.Reading{
			SensorID: cb.ids[idx],
			TypeName: cb.hdr.TypeName,
			Category: cb.hdr.Category,
			Time:     unixNano(prevTime),
			Value:    math.Float64frombits(prevBits),
			Unit:     cb.units[uIdx],
			Location: model.GeoPoint{Lat: lat, Lon: lon},
		})
	}
	if r.off != len(r.data) {
		return dst, fmt.Errorf("columnar: %d trailing bytes", len(r.data)-r.off)
	}
	return dst, nil
}

// DecodeBatchColumnar parses the columnar delta format.
func DecodeBatchColumnar(data []byte) (*model.Batch, error) {
	return DecodeBatchColumnarLimit(data, math.MaxInt)
}

// DecodeBatchColumnarLimit is DecodeBatchColumnar for a payload from a
// peer: a header counting more than limit readings fails before any
// row is decoded or allocated.
func DecodeBatchColumnarLimit(data []byte, limit int) (*model.Batch, error) {
	cb, err := openColumnar(data)
	if err != nil {
		return nil, err
	}
	if cb.hdr.Count > limit {
		return nil, fmt.Errorf("columnar: %d readings, over the limit of %d", cb.hdr.Count, limit)
	}
	rs, err := cb.appendRows(make([]model.Reading, 0, cb.hdr.Count), math.MinInt64, math.MaxInt64, 0)
	if err != nil {
		return nil, err
	}
	return &model.Batch{
		NodeID:    cb.hdr.NodeID,
		TypeName:  cb.hdr.TypeName,
		Category:  cb.hdr.Category,
		Collected: cb.hdr.Collected,
		Readings:  rs,
	}, nil
}

// AppendReadingsColumnar is the range-bounded, append-style decoder
// the segment store reads blocks through: it appends to dst, in
// payload order, the readings of a columnar payload timed within
// [fromNs, toNs] (unix nanos, inclusive), at most max of them when
// max > 0, and returns the payload's type name and how many readings
// it encodes in all (what a block's index entry must agree with). It
// fails exactly when DecodeBatchColumnar fails and otherwise appends
// exactly what filtering DecodeBatchColumnar's readings would give;
// dst grows only by rows it keeps, so the caller's presizing is what
// bounds allocation. On error dst comes back at its original length.
func AppendReadingsColumnar(dst []model.Reading, data []byte, fromNs, toNs int64, max int) (out []model.Reading, typeName string, count int, err error) {
	cb, err := openColumnar(data)
	if err != nil {
		return dst, "", 0, err
	}
	if out, err = cb.appendRows(dst, fromNs, toNs, max); err != nil {
		return dst, "", 0, err
	}
	return out, cb.hdr.TypeName, cb.hdr.Count, nil
}
