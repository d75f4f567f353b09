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
	"sync/atomic"
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

// maxBatchWireSize bounds the decompressed wire size
// DecodeBatchPayload accepts. Atomic because receive paths decode
// concurrently with any configuration change.
var maxBatchWireSize atomic.Int64

// DefaultMaxBatchWireSize is the decompressed-size bound in effect
// when SetMaxBatchWireSize was never called (or was reset to zero).
const DefaultMaxBatchWireSize = aggregate.DefaultMaxDecompressedSize

// MaxBatchWireSize returns the current decompressed-size bound; zero
// means DefaultMaxBatchWireSize.
func MaxBatchWireSize() int { return int(maxBatchWireSize.Load()) }

// SetMaxBatchWireSize bounds the decompressed wire size
// DecodeBatchPayload accepts; a corrupt or hostile envelope beyond it
// fails with *aggregate.SizeLimitError instead of exhausting memory.
// Zero (the default) selects aggregate.DefaultMaxDecompressedSize.
// Safe to call while decoders are running.
func SetMaxBatchWireSize(n int) { maxBatchWireSize.Store(int64(n)) }

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
	if len(payload) < envelopeHeader {
		return nil, 0, 0, fmt.Errorf("protocol: payload too short (%d bytes)", len(payload))
	}
	if payload[0] != envelopeMagic {
		return nil, 0, 0, fmt.Errorf("protocol: bad magic 0x%02x", payload[0])
	}
	codec := aggregate.Codec(payload[2])
	if !codec.Valid() {
		return nil, 0, 0, fmt.Errorf("protocol: invalid codec %d", payload[2])
	}
	var seq uint64
	var body []byte
	switch payload[1] {
	case envelopeVersion:
		body = payload[envelopeHeader:]
	case envelopeVersion2:
		if len(payload) < envelopeHeaderV2 {
			return nil, 0, 0, fmt.Errorf("protocol: v2 payload too short (%d bytes)", len(payload))
		}
		seq = binary.BigEndian.Uint64(payload[envelopeHeader:envelopeHeaderV2])
		body = payload[envelopeHeaderV2:]
	default:
		return nil, 0, 0, fmt.Errorf("protocol: unsupported version %d", payload[1])
	}
	if codec == aggregate.CodecNone {
		// The body already is the wire text and DecodeBatch never
		// aliases its input, so parse in place instead of copying
		// through the scratch pool. Same size bound as the codecs.
		max := MaxBatchWireSize()
		if max <= 0 {
			max = aggregate.DefaultMaxDecompressedSize
		}
		if len(body) > max {
			return nil, 0, 0, fmt.Errorf("protocol: open batch: %w",
				&aggregate.SizeLimitError{Codec: codec, Limit: max})
		}
		b, err := sensor.DecodeBatch(body)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("protocol: open batch: %w", err)
		}
		return b, codec, seq, nil
	}
	bufp := openBufPool.Get().(*[]byte)
	wire, err := aggregate.AppendDecompress((*bufp)[:0], codec, body, MaxBatchWireSize())
	if cap(wire) <= maxPooledBufCap { // don't let one giant batch pin pool memory
		*bufp = wire[:0]
	} else {
		*bufp = nil
	}
	if err != nil {
		openBufPool.Put(bufp)
		return nil, 0, 0, fmt.Errorf("protocol: open batch: %w", err)
	}
	b, err := sensor.DecodeBatch(wire)
	openBufPool.Put(bufp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("protocol: open batch: %w", err)
	}
	return b, codec, seq, nil
}

// DefaultPageLimit is every node's bound on readings per query
// response page. Historical scans stream in pages of at most this
// many readings instead of materializing one unbounded response.
const DefaultPageLimit = 1024

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
// by a sealed batch envelope, the same zero-allocation wire path
// upward flushes use. Replacing the old JSON []model.Reading payload
// with the sealed-batch path makes responses compressed, bounded and
// cheap to decode.
const (
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

// HasMore reports whether another page follows.
func (p QueryPage) HasMore() bool { return p.NextCursor != "" }

// AppendQueryPage appends the binary encoding of a page to dst and
// returns the extended slice. nodeID names the answering node (it
// becomes the embedded batch's origin). All readings of a page must
// share one sensor type — pages are produced from single-type range
// scans or single-sensor latest lookups.
func AppendQueryPage(dst []byte, nodeID string, p QueryPage, codec aggregate.Codec) ([]byte, error) {
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
	out, err := AppendBatchPayload(dst, b, codec)
	if err != nil {
		return nil, fmt.Errorf("protocol: seal query page: %w", err)
	}
	return out, nil
}

// EncodeQueryPage renders a page as a fresh payload.
func EncodeQueryPage(nodeID string, p QueryPage, codec aggregate.Codec) ([]byte, error) {
	return AppendQueryPage(make([]byte, 0, 16+len(p.NextCursor)+len(p.Readings)*16), nodeID, p, codec)
}

// DecodeQueryPage opens a binary query page.
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
	b, _, err := DecodeBatchPayload(rest)
	if err != nil {
		return QueryPage{}, fmt.Errorf("protocol: open query page: %w", err)
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
