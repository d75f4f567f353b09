// Package protocol defines the application payloads exchanged between
// F2C layers over any transport: batch envelopes (wire-encoded,
// optionally compressed batches with codec framing), data queries, and
// control commands.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sensor"
)

// Envelope framing for batch payloads. Version 1 is the original
// header (magic, version, codec); version 2 appends an 8-byte
// big-endian delivery sequence so receivers on an at-least-once path
// can dedupe retried batches (seq 0 = unidentified, never deduped).
// Decoders accept both; Seal emits v1, SealSeq emits v2. Sealed
// envelopes are opaque to the transports: the tcpnet socket transport
// carries them verbatim inside its length-prefixed frames (the frame
// format is documented in internal/transport/tcpnet), so the bytes a
// Sealer produced are the bytes DecodeBatchPayload receives, frozen
// sequence included.
const (
	envelopeMagic    = 0xF2
	envelopeVersion  = 1
	envelopeVersion2 = 2
	envelopeHeader   = 3                  // magic, version, codec
	envelopeHeaderV2 = envelopeHeader + 8 // + big-endian seq
)

// MaxBatchWireSize bounds the decompressed wire size
// DecodeBatchPayloadSeq accepts; a corrupt or hostile envelope beyond
// it fails with *aggregate.SizeLimitError instead of exhausting memory.
const MaxBatchWireSize = aggregate.DefaultMaxDecompressedSize

// maxPooledBufCap bounds the capacity of scratch buffers returned to
// reuse pools (the fmt stdlib pattern): one giant batch must not pin
// its buffer in the pool until the next GC. Typical sealed batches
// are well under this, so the steady state stays allocation-free.
const maxPooledBufCap = 1 << 20

// Sealer seals batch envelopes while reusing its intermediate
// wire-encoding buffer across calls. The zero value is ready to use;
// a Sealer must not be used concurrently. Each fog-node flush worker
// owns one, so steady-state sealing performs no heap allocation
// beyond growing the caller's destination buffer.
type Sealer struct {
	wire []byte
}

// Trim releases the sealer's internal buffer if it has grown past
// max bytes (<= 0 selects a 1MB default). Callers that pool Sealers
// should Trim before putting one back so an outlier batch does not
// stay resident.
func (s *Sealer) Trim(max int) {
	if max <= 0 {
		max = maxPooledBufCap
	}
	if cap(s.wire) > max {
		s.wire = nil
	}
}

// Seal appends the sealed envelope of b (header + compressed wire
// encoding, same bytes as EncodeBatchPayload) to dst and returns the
// extended slice.
func (s *Sealer) Seal(dst []byte, b *model.Batch, codec aggregate.Codec) ([]byte, error) {
	if !codec.Valid() {
		return nil, fmt.Errorf("protocol: invalid codec %d", int(codec))
	}
	s.wire = sensor.AppendBatch(s.wire[:0], b)
	dst = append(dst, envelopeMagic, envelopeVersion, byte(codec))
	out, err := aggregate.AppendCompress(dst, codec, s.wire)
	if err != nil {
		return nil, fmt.Errorf("protocol: seal batch: %w", err)
	}
	return out, nil
}

// SealSeq appends the version-2 sealed envelope of b — identical to
// Seal plus the delivery sequence in the header — to dst. The
// sequence identifies this sealed content for at-least-once delivery:
// a sender retrying after a lost acknowledgement reuses the sequence,
// and the receiver's ReplayFilter drops the duplicate. seq 0 encodes
// "unidentified" and is never deduped.
func (s *Sealer) SealSeq(dst []byte, b *model.Batch, codec aggregate.Codec, seq uint64) ([]byte, error) {
	if !codec.Valid() {
		return nil, fmt.Errorf("protocol: invalid codec %d", int(codec))
	}
	s.wire = sensor.AppendBatch(s.wire[:0], b)
	dst = append(dst, envelopeMagic, envelopeVersion2, byte(codec))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	out, err := aggregate.AppendCompress(dst, codec, s.wire)
	if err != nil {
		return nil, fmt.Errorf("protocol: seal batch: %w", err)
	}
	return out, nil
}

var sealerPool = sync.Pool{New: func() any { return new(Sealer) }}

// AppendBatchPayload appends the sealed envelope of b to dst using a
// pooled Sealer. Callers on a hot loop should hold their own Sealer
// instead.
func AppendBatchPayload(dst []byte, b *model.Batch, codec aggregate.Codec) ([]byte, error) {
	s := sealerPool.Get().(*Sealer)
	out, err := s.Seal(dst, b, codec)
	s.Trim(0)
	sealerPool.Put(s)
	return out, err
}

// EncodeBatchPayload seals a batch for an upward transfer: wire-encode
// then compress with the codec. The returned payload is self-framing
// and freshly allocated; hot paths should prefer Sealer.Seal or
// AppendBatchPayload to reuse buffers.
func EncodeBatchPayload(b *model.Batch, codec aggregate.Codec) ([]byte, error) {
	return AppendBatchPayload(make([]byte, 0, envelopeHeader+64+len(b.Readings)*16), b, codec)
}

// openBufPool recycles the decompression scratch of
// DecodeBatchPayload. DecodeBatch copies every string it keeps, so
// the wire buffer can be reused as soon as decoding returns.
var openBufPool = sync.Pool{New: func() any { return new([]byte) }}

// DecodeBatchPayload opens a batch envelope (either version),
// discarding the delivery sequence. Receive paths that dedupe retries
// use DecodeBatchPayloadSeq instead.
func DecodeBatchPayload(payload []byte) (*model.Batch, aggregate.Codec, error) {
	b, codec, _, err := DecodeBatchPayloadSeq(payload)
	return b, codec, err
}

// DecodeBatchPayloadSeq opens a batch envelope and returns the
// delivery sequence carried by a version-2 header (0 for version-1
// envelopes and unidentified batches).
func DecodeBatchPayloadSeq(payload []byte) (*model.Batch, aggregate.Codec, uint64, error) {
	return decodeBatchPayload(payload, MaxBatchWireSize)
}

// decodeBatchPayload is DecodeBatchPayloadSeq with the decompressed
// wire size bounded at max.
func decodeBatchPayload(payload []byte, max int) (*model.Batch, aggregate.Codec, uint64, error) {
	wire, scratch, codec, seq, err := openEnvelope(payload, max)
	if err != nil {
		return nil, 0, 0, err
	}
	b, err := sensor.DecodeBatch(wire)
	putOpenBuf(scratch, wire)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("protocol: open batch: %w", err)
	}
	return b, codec, seq, nil
}

// openEnvelope checks a batch envelope's header and returns its body's
// wire bytes, decompressed into pooled scratch and bounded at max
// bytes. The caller decodes the wire, whose decoders copy every string
// they keep, and then hands the scratch back with putOpenBuf. An
// uncompressed body needs no scratch: wire aliases payload and scratch
// is nil.
func openEnvelope(payload []byte, max int) (wire []byte, scratch *[]byte, codec aggregate.Codec, seq uint64, err error) {
	if len(payload) < envelopeHeader {
		return nil, nil, 0, 0, fmt.Errorf("protocol: payload too short (%d bytes)", len(payload))
	}
	if payload[0] != envelopeMagic {
		return nil, nil, 0, 0, fmt.Errorf("protocol: bad magic 0x%02x", payload[0])
	}
	codec = aggregate.Codec(payload[2])
	if !codec.Valid() {
		return nil, nil, 0, 0, fmt.Errorf("protocol: invalid codec %d", payload[2])
	}
	var body []byte
	switch payload[1] {
	case envelopeVersion:
		body = payload[envelopeHeader:]
	case envelopeVersion2:
		if len(payload) < envelopeHeaderV2 {
			return nil, nil, 0, 0, fmt.Errorf("protocol: v2 payload too short (%d bytes)", len(payload))
		}
		seq = binary.BigEndian.Uint64(payload[envelopeHeader:envelopeHeaderV2])
		body = payload[envelopeHeaderV2:]
	default:
		return nil, nil, 0, 0, fmt.Errorf("protocol: unsupported version %d", payload[1])
	}
	if codec == aggregate.CodecNone {
		// The body already is the wire: decode it in place instead of
		// copying through the scratch pool. Same size bound as the
		// codecs.
		if len(body) > max {
			return nil, nil, 0, 0, fmt.Errorf("protocol: open batch: %w",
				&aggregate.SizeLimitError{Codec: codec, Limit: max})
		}
		return body, nil, codec, seq, nil
	}
	scratch = openBufPool.Get().(*[]byte)
	wire, err = aggregate.AppendDecompress((*scratch)[:0], codec, body, max)
	if err != nil {
		putOpenBuf(scratch, wire)
		return nil, nil, 0, 0, fmt.Errorf("protocol: open batch: %w", err)
	}
	return wire, scratch, codec, seq, nil
}

// putOpenBuf returns openEnvelope's scratch, grown to wire, to the
// pool; one giant batch does not pin pool memory.
func putOpenBuf(scratch *[]byte, wire []byte) {
	if scratch == nil {
		return
	}
	if cap(wire) <= maxPooledBufCap {
		*scratch = wire[:0]
	} else {
		*scratch = nil
	}
	openBufPool.Put(scratch)
}

// DefaultPageLimit is every node's bound on readings per query
// response page. Historical scans stream in pages of at most this
// many readings instead of materializing one unbounded response.
const DefaultPageLimit = 1024

// maxPageReadingWire is the per-reading ceiling of a page's text wire
// encoding, the larger of a page's two bodies. A generator reading
// takes about 65 bytes; the ceiling stays generous because the
// protocol bounds no sensor ID or unit length and strconv's 'f', -1
// prints a float64 in up to ~330 digits.
const maxPageReadingWire = 16 << 10

// maxPageWireSize bounds the inflated body DecodeQueryPage accepts,
// columnar or text: DefaultPageLimit readings at maxPageReadingWire
// each (16 MiB). A page is a remote peer's reply, so a deflate bomb in
// one fails with *aggregate.SizeLimitError instead of allocating up to
// MaxBatchWireSize.
const maxPageWireSize = DefaultPageLimit * maxPageReadingWire

// QueryRequest asks a node for data. Exactly one of SensorID (latest
// reading) or TypeName (range query) must be set. Range queries are
// paged: Limit bounds the readings per response (servers clamp it to
// DefaultPageLimit) and Cursor resumes a scan from where the previous
// page's NextCursor left off.
type QueryRequest struct {
	SensorID string `json:"sensorId,omitempty"`
	TypeName string `json:"type,omitempty"`
	FromUnix int64  `json:"fromUnixNano,omitempty"`
	ToUnix   int64  `json:"toUnixNano,omitempty"`
	// Limit is the maximum readings the response page may carry;
	// 0 selects DefaultPageLimit, which also caps larger values.
	Limit int `json:"limit,omitempty"`
	// Cursor is the opaque resume position returned by the previous
	// page; empty starts the scan at the beginning of the range.
	Cursor string `json:"cursor,omitempty"`
}

// Validate checks request shape.
func (q QueryRequest) Validate() error {
	switch {
	case q.SensorID == "" && q.TypeName == "":
		return fmt.Errorf("protocol: query needs sensorId or type")
	case q.SensorID != "" && q.TypeName != "":
		return fmt.Errorf("protocol: query must not set both sensorId and type")
	case q.TypeName != "" && q.FromUnix > q.ToUnix:
		return fmt.Errorf("protocol: query range inverted")
	case q.Limit < 0:
		return fmt.Errorf("protocol: negative page limit %d", q.Limit)
	case q.Cursor != "" && q.TypeName == "":
		return fmt.Errorf("protocol: cursor is only valid on range queries")
	}
	return nil
}

// Range returns the [from, to] instants of a range query.
func (q QueryRequest) Range() (from, to time.Time) {
	return time.Unix(0, q.FromUnix), time.Unix(0, q.ToUnix)
}

// Query page framing. A page is a small binary header (magic,
// version, flags, cursor) followed — when the page carries readings —
// by a version-1 batch envelope whose body is the readings' columnar
// encoding in its layout exact to the text wire
// (sensor.AppendBatchColumnarExact), compressed with pageCodec at
// flate.BestSpeed whatever codec the deployment seals upward with. A
// page is encoded and decoded on the read's critical path: BestSpeed
// costs a third of zip's encode time, and the columnar body of a range
// page (tens of sensors over tens of rounds) is a quarter of the text
// one's bytes to deflate, inflate and parse. DecodeQueryPage
// tells the body by its magic: "F2CC" is columnar, and anything else
// goes to the text decoder, so the text pages of older servers
// ("#f2c", in any codec the envelope names) still open. Clients
// upgrade first: an older client's text decoder refuses a columnar
// body as a malformed header, and never returns wrong readings.
const (
	// pageCodec is the codec byte of every page's envelope.
	pageCodec     = aggregate.CodecFlate
	pageMagic     = 0xF3
	pageVersion   = 1
	pageFlagFound = 1 << 0
	pageFlagMore  = 1 << 1
	// maxPageCursorLen bounds the cursor field a decoder accepts, so
	// a corrupt length prefix cannot force a huge allocation.
	maxPageCursorLen = 1 << 10
)

// QueryPage is one bounded page of query results.
type QueryPage struct {
	// Found reports whether the query matched anything (for latest
	// lookups: the sensor exists; for range scans: this page or a
	// later one carries readings).
	Found bool
	// NextCursor resumes the scan after this page; empty means the
	// scan is complete.
	NextCursor string
	// Readings is the page's payload, at most the server's page limit.
	Readings []model.Reading
}

// AppendQueryPage appends the binary encoding of a page to dst and
// returns the extended slice. nodeID names the answering node (it
// becomes the embedded batch's origin). All readings of a page must
// share one sensor type — pages are produced from single-type range
// scans or single-sensor latest lookups.
func AppendQueryPage(dst []byte, nodeID string, p QueryPage) ([]byte, error) {
	if len(p.NextCursor) > maxPageCursorLen {
		return nil, fmt.Errorf("protocol: cursor too long (%d bytes)", len(p.NextCursor))
	}
	flags := byte(0)
	if p.Found {
		flags |= pageFlagFound
	}
	if p.NextCursor != "" {
		flags |= pageFlagMore
	}
	dst = append(dst, pageMagic, pageVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(len(p.NextCursor)))
	dst = append(dst, p.NextCursor...)
	if len(p.Readings) == 0 {
		return dst, nil
	}
	b := &model.Batch{
		NodeID:    nodeID,
		TypeName:  p.Readings[0].TypeName,
		Category:  p.Readings[0].Category,
		Collected: p.Readings[len(p.Readings)-1].Time,
		Readings:  p.Readings,
	}
	s := sealerPool.Get().(*Sealer)
	s.wire = sensor.AppendBatchColumnarExact(s.wire[:0], b)
	dst = append(dst, envelopeMagic, envelopeVersion, byte(pageCodec))
	out, err := aggregate.AppendFlateBestSpeed(dst, s.wire)
	s.Trim(0)
	sealerPool.Put(s)
	if err != nil {
		return nil, fmt.Errorf("protocol: seal query page: %w", err)
	}
	return out, nil
}

// EncodeQueryPage renders a page as a fresh payload.
func EncodeQueryPage(nodeID string, p QueryPage) ([]byte, error) {
	return AppendQueryPage(make([]byte, 0, 16+len(p.NextCursor)+len(p.Readings)*16), nodeID, p)
}

// DecodeQueryPage opens a binary query page. Its body may inflate to
// at most maxPageWireSize bytes and carry at most DefaultPageLimit
// readings, the clamp every server applies; a columnar body counting
// more is refused before any reading is decoded.
func DecodeQueryPage(payload []byte) (QueryPage, error) {
	if len(payload) < 3 {
		return QueryPage{}, fmt.Errorf("protocol: page too short (%d bytes)", len(payload))
	}
	if payload[0] != pageMagic {
		return QueryPage{}, fmt.Errorf("protocol: bad page magic 0x%02x", payload[0])
	}
	if payload[1] != pageVersion {
		return QueryPage{}, fmt.Errorf("protocol: unsupported page version %d", payload[1])
	}
	flags := payload[2]
	rest := payload[3:]
	n, used := binary.Uvarint(rest)
	if used <= 0 || n > maxPageCursorLen || uint64(len(rest)-used) < n {
		return QueryPage{}, fmt.Errorf("protocol: corrupt page cursor length")
	}
	p := QueryPage{
		Found:      flags&pageFlagFound != 0,
		NextCursor: string(rest[used : used+int(n)]),
	}
	rest = rest[used+int(n):]
	if len(rest) == 0 {
		return p, nil
	}
	wire, scratch, _, _, err := openEnvelope(rest, maxPageWireSize)
	if err != nil {
		return QueryPage{}, fmt.Errorf("protocol: open query page: %w", err)
	}
	var b *model.Batch
	if sensor.IsColumnar(wire) {
		b, err = sensor.DecodeBatchColumnarLimit(wire, DefaultPageLimit)
	} else {
		b, err = sensor.DecodeBatch(wire)
	}
	putOpenBuf(scratch, wire)
	if err != nil {
		return QueryPage{}, fmt.Errorf("protocol: open query page: %w", err)
	}
	if len(b.Readings) > DefaultPageLimit {
		return QueryPage{}, fmt.Errorf("protocol: query page carries %d readings, over the %d-reading page limit", len(b.Readings), DefaultPageLimit)
	}
	p.Readings = b.Readings
	return p, nil
}

// SummaryRequest asks a node for a decomposable aggregate over a type
// range — the hierarchical processing path: partials computed where
// the data lives, merged by the requester.
type SummaryRequest struct {
	TypeName string `json:"type"`
	FromUnix int64  `json:"fromUnixNano"`
	ToUnix   int64  `json:"toUnixNano"`
}

// Validate checks request shape.
func (q SummaryRequest) Validate() error {
	if q.TypeName == "" {
		return fmt.Errorf("protocol: summary needs a type")
	}
	if q.FromUnix > q.ToUnix {
		return fmt.Errorf("protocol: summary range inverted")
	}
	return nil
}

// Range returns the [from, to] instants.
func (q SummaryRequest) Range() (from, to time.Time) {
	return time.Unix(0, q.FromUnix), time.Unix(0, q.ToUnix)
}

// SummaryResponse carries the partial aggregate.
type SummaryResponse struct {
	Summary aggregate.Summary `json:"summary"`
}

// SummaryWindow is one degraded time window inside a SummaryPush:
// the decomposable aggregate of the raw readings that were folded
// away, bounded by the window's [start, end) instants.
type SummaryWindow struct {
	StartUnix int64             `json:"startUnixNano"`
	EndUnix   int64             `json:"endUnixNano"`
	Summary   aggregate.Summary `json:"summary"`
}

// SummaryPush carries degraded ingest upward: when an overloaded fog
// node folds pending raw readings into window summaries instead of
// shedding them, the summaries travel in this envelope under
// transport.KindSummaryPush. Origin and Seq share the batch delivery
// sequence space of the origin node, so the receiver's existing
// per-origin replay filter dedups retried pushes exactly like batches.
type SummaryPush struct {
	Origin   string          `json:"origin"`
	Seq      uint64          `json:"seq"`
	TypeName string          `json:"type"`
	Category string          `json:"category"`
	Windows  []SummaryWindow `json:"windows"`
}

// Readings returns the total raw-reading count folded into the push —
// the degraded-resolution information the windows still carry.
func (p SummaryPush) Readings() int64 {
	var n int64
	for _, w := range p.Windows {
		n += w.Summary.Count
	}
	return n
}

// Validate checks push shape.
func (p SummaryPush) Validate() error {
	if p.Origin == "" {
		return fmt.Errorf("protocol: summary push needs an origin")
	}
	if p.TypeName == "" {
		return fmt.Errorf("protocol: summary push needs a type")
	}
	if len(p.Windows) == 0 {
		return fmt.Errorf("protocol: summary push carries no windows")
	}
	for _, w := range p.Windows {
		if w.Summary.Count <= 0 {
			return fmt.Errorf("protocol: summary push window with no readings")
		}
	}
	return nil
}

// ControlOp enumerates control commands.
type ControlOp string

const (
	// OpFlush forces an immediate upward flush.
	OpFlush ControlOp = "flush"
	// OpStatus requests a status report.
	OpStatus ControlOp = "status"
	// OpMetrics requests a dump of the node's metrics registry
	// (counters, gauges, histogram quantiles) as JSON — the scrape
	// path for transport and flush instrumentation.
	OpMetrics ControlOp = "metrics"
	// OpRoutes requests a fog node's migration state: the active
	// type-forwarding table the elastic rebalance installed, plus the
	// live shard-migration counters (fog layers only).
	OpRoutes ControlOp = "routes"
	// OpSubscribe registers (or, with Remove set, cancels) a standing
	// continuous-query subscription on a fog node. The subscription
	// document rides in ControlRequest.Sub as raw JSON so the protocol
	// package stays ignorant of the cq engine's schema.
	OpSubscribe ControlOp = "subscribe"
	// OpSubscriptions lists a fog node's standing subscriptions.
	OpSubscriptions ControlOp = "subscriptions"
)

// ControlRequest is a control-plane command.
type ControlRequest struct {
	Op ControlOp `json:"op"`
	// Sub is the cq.Subscription document for OpSubscribe, opaque to
	// this package.
	Sub json.RawMessage `json:"sub,omitempty"`
	// Remove turns OpSubscribe into a cancellation of the subscription
	// whose id matches Sub's "id" field.
	Remove bool `json:"remove,omitempty"`
}

// SubscriptionsResponse lists a node's standing subscriptions as raw
// cq.Subscription documents.
type SubscriptionsResponse struct {
	NodeID string            `json:"nodeId"`
	Subs   []json.RawMessage `json:"subs,omitempty"`
}

// RoutesResponse reports a fog node's elastic-rebalance state: which
// sensor types it forwards to a new owner, and how much shard state
// live migration has moved through it in either direction.
type RoutesResponse struct {
	NodeID string `json:"nodeId"`
	// Routes maps sensor type to the sibling now owning its ingest.
	Routes               map[string]string `json:"routes,omitempty"`
	MigratedOutTransfers int64             `json:"migratedOutTransfers"`
	MigratedOutReadings  int64             `json:"migratedOutReadings"`
	MigratedOutBytes     int64             `json:"migratedOutBytes"`
	MigratedInTransfers  int64             `json:"migratedInTransfers"`
	MigratedInReadings   int64             `json:"migratedInReadings"`
}

// StatusResponse reports node state.
type StatusResponse struct {
	NodeID          string  `json:"nodeId"`
	Layer           string  `json:"layer"`
	StoredReadings  int64   `json:"storedReadings"`
	StoredSeries    int     `json:"storedSeries"`
	PendingBatches  int     `json:"pendingBatches"`
	IngestedBatches int64   `json:"ingestedBatches"`
	DedupEliminated float64 `json:"dedupEliminated"`
}

// EncodeJSON marshals any protocol value.
func EncodeJSON(v any) ([]byte, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode: %w", err)
	}
	return out, nil
}

// DecodeJSON unmarshals into v.
func DecodeJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("protocol: decode: %w", err)
	}
	return nil
}
