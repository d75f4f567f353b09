// Package tcpnet is the production socket transport of the F2C
// hierarchy: a persistent-connection TCP implementation of
// transport.Transport with a length-prefixed framed protocol that
// carries sealed batch envelopes verbatim — the same bytes
// protocol.Sealer produced, no re-encode — so the zero-allocation
// wire path of the flush pipeline extends across real sockets.
//
// Each peer gets an independent connection pool per traffic class
// (ingest, query, relay). A class is a true stream: its requests are
// multiplexed by id over its own connections and bounded by its own
// flow-control window, so a saturated bulk-ingest stream can neither
// head-of-line-block a query on a shared TCP connection nor starve it
// of window — the isolation the paper's real-time fog reads depend
// on. Window exhaustion surfaces as transport.ErrBackpressure, which
// the fognode flush machinery treats as "defer, parent is alive"
// rather than as a failure that would trigger sibling failover.
//
// # Frame format
//
// Every frame is a 4-byte big-endian length prefix followed by the
// frame body (the length counts the body only):
//
//	uint32  length
//	byte    frame type (1 request, 2 reply, 3 error reply)
//	byte    traffic class (0 ingest, 1 query, 2 relay)
//	uint64  request id (big-endian; replies echo the request's id)
//
//	request body:
//	  byte     message kind (1 batch, 2 summary, 3 query, 4 control,
//	           5 relay, 6 summary-push, 7 migrate, 8 alert-push)
//	  uvarint  len + bytes  From (sender node id)
//	  uvarint  len + bytes  To (addressed node id)
//	  uvarint  len + bytes  Class (accounting class, e.g. category)
//	  rest     payload, verbatim (for kind batch/relay: a sealed
//	           envelope, v1 or v2 — see the envelope notes in
//	           internal/protocol)
//
//	reply / error body:
//	  rest     reply payload / error message text
//
// Connections open with a 4-byte preface ("F2C" + version) so a
// protocol or version mismatch fails loudly at dial time instead of
// desynchronizing mid-stream. Frames beyond the configured maximum
// size are rejected with a typed *FrameSizeError (default bound:
// protocol.MaxBatchWireSize plus framing slack); a compliant receiver
// answers with an error reply and discards the body, keeping the
// connection alive.
package tcpnet

import (
	"encoding/binary"
	"fmt"

	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// Connection preface: protocol magic + version, written once by the
// dialing side and validated by the accepting side.
var preface = [4]byte{'F', '2', 'C', 1}

// Frame types.
const (
	frameRequest = 1
	frameReply   = 2
	frameError   = 3
)

// Fixed frame-body header: type (1) + class (1) + request id (8).
const frameFixedHeader = 10

// lenPrefixSize is the length prefix preceding every frame body.
const lenPrefixSize = 4

// Class is the multiplexed stream a message travels on. Each class
// has its own connections and flow-control window per peer, so the
// classes cannot head-of-line-block each other.
type Class uint8

// The three traffic classes of the F2C message plane.
const (
	// ClassIngest carries bulk sensor batches moving upward.
	ClassIngest Class = iota
	// ClassQuery carries the read path: queries, summaries, control.
	ClassQuery
	// ClassRelay carries sibling-failover relays — kept off the
	// ingest stream so a node drowning in its own upward traffic can
	// still help a partitioned sibling.
	ClassRelay

	numClasses = 3
)

// String names the class for metrics and errors.
func (c Class) String() string {
	switch c {
	case ClassIngest:
		return "ingest"
	case ClassQuery:
		return "query"
	case ClassRelay:
		return "relay"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// classNames lists the class metric names in Class order.
var classNames = []string{"ingest", "query", "relay"}

// ClassOf maps a message kind onto its stream: upward write traffic
// (batches, summary and alert pushes) rides ingest, relays and
// migrations ride relay, and everything else (queries, summaries,
// control) rides the latency-sensitive query stream — the same
// mapping as transport.ClassNameOf.
func ClassOf(k transport.Kind) Class {
	switch k {
	case transport.KindBatch, transport.KindSummaryPush, transport.KindAlertPush:
		return ClassIngest
	case transport.KindRelay, transport.KindMigrate:
		return ClassRelay
	default:
		return ClassQuery
	}
}

// Message kind codes on the wire.
var kindCodes = map[transport.Kind]byte{
	transport.KindBatch:       1,
	transport.KindSummary:     2,
	transport.KindQuery:       3,
	transport.KindControl:     4,
	transport.KindRelay:       5,
	transport.KindSummaryPush: 6,
	transport.KindMigrate:     7,
	transport.KindAlertPush:   8,
}

var kindNames = map[byte]transport.Kind{
	1: transport.KindBatch,
	2: transport.KindSummary,
	3: transport.KindQuery,
	4: transport.KindControl,
	5: transport.KindRelay,
	6: transport.KindSummaryPush,
	7: transport.KindMigrate,
	8: transport.KindAlertPush,
}

// DefaultMaxFrame is the frame-size bound derived from the batch
// wire-size limit: no legitimate payload exceeds the maximum sealed
// envelope, so frames are bounded by it plus framing slack.
const DefaultMaxFrame = protocol.MaxBatchWireSize + frameSlack

// frameSlack covers the frame header and metadata strings on top of
// the payload bound, plus the headroom a migration transfer adds to
// the batch-envelope bound (protocol.MaxMigrateWireSize).
const frameSlack = 8 << 10

// FrameSizeError reports a frame rejected for exceeding the maximum
// frame size (the protocol.MaxBatchWireSize-derived bound, or the
// configured override). It is returned by the sender when the payload
// could never be accepted, and by the receiver as an error reply.
type FrameSizeError struct {
	// Size is the offending frame's body size.
	Size int
	// Limit is the enforced bound.
	Limit int
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("tcpnet: frame of %d bytes exceeds MaxBatchWireSize-derived limit %d", e.Size, e.Limit)
}

// BackpressureError reports a send refused because the peer's
// flow-control window for the message's traffic class is exhausted.
// It unwraps to transport.ErrBackpressure.
type BackpressureError struct {
	Peer  string
	Class Class
	// Inflight and Window describe the window state at rejection.
	Inflight, Window int64
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("tcpnet: %s window to %s exhausted (%d of %d bytes in flight)",
		e.Class, e.Peer, e.Inflight, e.Window)
}

// Unwrap makes errors.Is(err, transport.ErrBackpressure) true.
func (e *BackpressureError) Unwrap() error { return transport.ErrBackpressure }

// appendRequestFrame appends the complete request frame (length
// prefix included) for msg to dst and returns the extended slice,
// excluding the payload, which the caller writes separately to avoid
// copying it: the frame length accounts for it.
func appendRequestFrame(dst []byte, class Class, id uint64, kindCode byte, msg *transport.Message) []byte {
	meta := 1 + uvarintLen(len(msg.From)) + len(msg.From) +
		uvarintLen(len(msg.To)) + len(msg.To) +
		uvarintLen(len(msg.Class)) + len(msg.Class)
	body := frameFixedHeader + meta + len(msg.Payload)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, frameRequest, byte(class))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, kindCode)
	dst = binary.AppendUvarint(dst, uint64(len(msg.From)))
	dst = append(dst, msg.From...)
	dst = binary.AppendUvarint(dst, uint64(len(msg.To)))
	dst = append(dst, msg.To...)
	dst = binary.AppendUvarint(dst, uint64(len(msg.Class)))
	dst = append(dst, msg.Class...)
	return dst
}

// appendReplyFrame appends a reply or error frame header (length
// prefix included) to dst; the caller writes the payload separately.
func appendReplyFrame(dst []byte, frameType byte, class Class, id uint64, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameFixedHeader+payloadLen))
	dst = append(dst, frameType, byte(class))
	dst = binary.BigEndian.AppendUint64(dst, id)
	return dst
}

// uvarintLen returns the encoded size of n as a uvarint.
func uvarintLen(n int) int {
	size := 1
	for v := uint64(n); v >= 0x80; v >>= 7 {
		size++
	}
	return size
}

// parseRequestBody decodes a request frame body (after the fixed
// header) into msg. The returned payload aliases body; the caller
// owns body's buffer and must not recycle it while msg is in use.
func parseRequestBody(body []byte, msg *transport.Message) error {
	if len(body) < 1 {
		return fmt.Errorf("tcpnet: truncated request body")
	}
	kind, ok := kindNames[body[0]]
	if !ok {
		return fmt.Errorf("tcpnet: unknown message kind code %d", body[0])
	}
	msg.Kind = kind
	rest := body[1:]
	var err error
	if msg.From, rest, err = readString(rest); err != nil {
		return fmt.Errorf("tcpnet: request from: %w", err)
	}
	if msg.To, rest, err = readString(rest); err != nil {
		return fmt.Errorf("tcpnet: request to: %w", err)
	}
	if msg.Class, rest, err = readString(rest); err != nil {
		return fmt.Errorf("tcpnet: request class: %w", err)
	}
	msg.Payload = rest
	return nil
}

// maxMetaString bounds the node-id and class strings a receiver
// accepts, so a corrupt length prefix cannot force a huge allocation.
const maxMetaString = 1 << 10

func readString(b []byte) (string, []byte, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 || n > maxMetaString || uint64(len(b)-used) < n {
		return "", nil, fmt.Errorf("corrupt string length")
	}
	return string(b[used : used+int(n)]), b[used+int(n):], nil
}
