// Package transport is the network substrate of the F2C hierarchy.
// The paper's city network (sensor links, metro fog links, WAN cloud
// uplinks over 3G/4G) is substituted by two interchangeable
// implementations of the same Transport interface: an in-process
// simulated network with per-link latency/bandwidth/loss profiles
// (deterministic, used by simulations, tests and latency benchmarks),
// and the tcpnet socket transport (persistent framed connections with
// per-class multiplexed streams — see internal/transport/tcpnet), the
// one wire real processes speak to each other. Both account traffic
// identically, which is what the paper's evaluation measures.
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Kind labels the protocol message types exchanged between layers.
type Kind string

const (
	// KindBatch carries an encoded (possibly compressed) batch
	// moving upward.
	KindBatch Kind = "batch"
	// KindSummary carries a decomposable aggregate summary.
	KindSummary Kind = "summary"
	// KindQuery requests data (real-time or historical).
	KindQuery Kind = "query"
	// KindControl carries control-plane commands (flush, status).
	KindControl Kind = "control"
	// KindRelay carries a sealed batch that the receiving fog node
	// must forward to its own parent unchanged — the sibling-failover
	// path used when the sender's parent is unreachable. The payload
	// is the same envelope KindBatch carries, so the batch keeps its
	// origin identity (and delivery sequence) end to end.
	KindRelay Kind = "relay"
	// KindSummaryPush carries a degraded-ingest summary moving upward:
	// when an overloaded fog node folds raw readings into decomposable
	// window summaries instead of shedding them, the summaries travel
	// under this kind (on the ingest stream — it is write traffic) so
	// the parent can merge them without confusing them with KindSummary
	// pull replies on the read path.
	KindSummaryPush Kind = "summarypush"
	// KindMigrate carries one chunk of a live shard handoff between
	// fog siblings: sealed batch envelopes, degrade-window summaries,
	// and replay-filter marks moving from the old owner of a sensor
	// type to its new owner. The sealed payloads keep their origin
	// identity and delivery sequences, so downstream dedup is
	// unaffected by the move.
	KindMigrate Kind = "migrate"
	// KindAlertPush carries continuous-query results moving upward:
	// window summaries and threshold alerts fired by a standing fog
	// subscription travel under this kind (on the ingest stream — it
	// is write traffic, like KindSummaryPush) with the same
	// at-least-once (origin, seq) identity batches have, so the
	// parent's replay filter dedups retried pushes.
	KindAlertPush Kind = "alertpush"
)

// ClassQuery is the traffic-matrix class tagging query and summary
// read traffic (requests and replies). Reads are not sensor-category
// flows; before this class existed they were accounted under the
// empty class and indistinguishable from untagged traffic.
const ClassQuery = "query"

// ClassMigrate is the traffic-matrix class tagging shard-migration
// transfers, kept distinct from sensor-category flows so the chaos
// plane can assert the rebalance-traffic bound straight off the
// matrix.
const ClassMigrate = "migrate"

// ClassNameOf maps a message kind onto its admission-scheduling class
// name ("ingest", "query", "relay") — the node-side mirror of the
// tcpnet stream mapping, used by the per-class weighted-fair
// scheduler gating each node's handler path.
func ClassNameOf(k Kind) string {
	switch k {
	case KindBatch, KindSummaryPush, KindAlertPush:
		return "ingest"
	case KindRelay, KindMigrate:
		return "relay"
	default:
		return "query"
	}
}

// Message is a framed request delivered to an endpoint.
type Message struct {
	// From and To are endpoint names (node IDs).
	From, To string
	// Kind selects the handler behaviour.
	Kind Kind
	// Class tags the traffic for accounting (sensor category name).
	Class string
	// Payload is the opaque body.
	Payload []byte
}

// WireSize is the accounted on-the-wire size of the message:
// payload plus a fixed small framing overhead.
func (m Message) WireSize() int64 { return WireSizeOf(len(m.Payload)) }

// WireSizeOf returns the accounted on-the-wire size of an n-byte
// payload (request or reply): the payload plus a fixed small framing
// overhead.
func WireSizeOf(n int) int64 {
	const framing = 32
	return int64(n) + framing
}

// Handler processes a delivered message and returns an optional
// reply payload.
type Handler interface {
	Handle(ctx context.Context, msg Message) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, msg Message) ([]byte, error)

var _ Handler = HandlerFunc(nil)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, msg Message) ([]byte, error) {
	return f(ctx, msg)
}

// Transport delivers a message to its destination endpoint and returns
// the reply.
//
// Implementations must not retain msg.Payload after Send returns:
// senders on the hot flush path seal payloads into reusable buffers
// and overwrite them on the next send. SimNetwork delivers
// synchronously and tcpnet writes the payload to the socket before
// Send returns, so both satisfy the contract.
type Transport interface {
	Send(ctx context.Context, msg Message) ([]byte, error)
}

// Sentinel errors shared by all transports.
var (
	// ErrUnknownEndpoint means the destination is not registered /
	// not routable.
	ErrUnknownEndpoint = errors.New("transport: unknown endpoint")
	// ErrDropped means the (simulated) link lost the message — or,
	// under an injected reply-loss fault, lost the reply after the
	// handler ran, so the receiver may have processed the message.
	ErrDropped = errors.New("transport: message dropped")
	// ErrPartitioned means an injected network partition severed the
	// link; the message never reached the destination.
	ErrPartitioned = errors.New("transport: link partitioned")
	// ErrNodeDown means an endpoint of the link is crashed; the
	// message never reached the destination.
	ErrNodeDown = errors.New("transport: node down")
	// ErrBackpressure means the transport refused the send because the
	// destination's flow-control window for the message's traffic
	// class is exhausted (a slow or overloaded receiver). The message
	// was never written; senders on the flush path keep the batch
	// queued and let the retry/backoff machinery defer — a
	// backpressured parent is alive, so this must not trigger
	// failover.
	ErrBackpressure = errors.New("transport: backpressure")
	// ErrOverloaded means the destination's admission scheduler
	// rejected the message fast: its class's waiter queue is full.
	// Like ErrBackpressure, the node is alive — senders defer rather
	// than fail over. The sentinel's message text is matched by
	// IsOverload so the signal survives a round-trip through a
	// *RemoteError reply.
	ErrOverloaded = errors.New("transport: node overloaded")
)

// IsOverload reports whether err is an admission-scheduler overload
// rejection, either local (errors.Is against ErrOverloaded) or
// remote: transports that learn of the rejection only through the
// peer's error reply surface it as a *RemoteError whose message
// preserves the sentinel text.
func IsOverload(err error) bool {
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "node overloaded")
}

// PartitionError reports a send that hit an injected partition. It
// unwraps to ErrPartitioned.
type PartitionError struct {
	From, To string
}

// Error implements error.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("transport: link partitioned: %s -> %s", e.From, e.To)
}

// Unwrap makes errors.Is(err, ErrPartitioned) true.
func (e *PartitionError) Unwrap() error { return ErrPartitioned }

// DownError reports a send to or from a crashed node. It unwraps to
// ErrNodeDown.
type DownError struct {
	Node string
}

// Error implements error.
func (e *DownError) Error() string {
	return fmt.Sprintf("transport: node down: %s", e.Node)
}

// Unwrap makes errors.Is(err, ErrNodeDown) true.
func (e *DownError) Unwrap() error { return ErrNodeDown }

// RemoteError wraps an application-level failure returned by the
// remote handler, preserving the endpoint for diagnosis.
type RemoteError struct {
	Endpoint string
	Msg      string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Endpoint, e.Msg)
}
