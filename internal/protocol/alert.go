package protocol

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"f2c/internal/aggregate"
	"f2c/internal/wal"
)

// Continuous-query alert wire format (transport.KindAlertPush
// payloads).
//
// A standing subscription evaluated in a fog node's ingest path fires
// alerts: closed-window aggregate summaries or threshold crossings.
// Fired alerts move upward batched into an AlertPush carrying the
// sender's (Origin, Seq) identity in the SAME sequence space batches
// and degrade summaries use, so the receiving tier's replay filter
// dedups a retried push without new machinery. Because retry-queue
// overflow may fold an old push's alerts into a younger push (a new
// (Origin, Seq) identity), each alert additionally carries its own
// instance identity — (FiredBy, SubID, StartUnix, Kind) — and the
// cloud stores alerts keyed by instance, which is what makes delivery
// exactly-once end to end no matter how pushes are re-batched in
// flight.
//
// Layout (all integers via the wal binary helpers; floats as IEEE-754
// bits in 8 big-endian bytes):
//
//	0xF5 version=1
//	origin typeName category   (uvarint-prefixed strings)
//	seq                        (8 bytes)
//	nAlerts {
//	  subID firedBy kind       (uvarint-prefixed strings)
//	  startUnix endUnix        (8+8 bytes, unix nanoseconds as uint64)
//	  count sumBits minBits maxBits valueBits (5 × 8 bytes)
//	}
const (
	alertMagic   = 0xF5
	alertVersion = 1
)

// MaxAlertWireSize bounds an encoded alert push; pushes are small
// (alerts carry summaries, not readings), so the batch bound with the
// migration headroom is comfortably sufficient and keeps the payload
// under every transport frame limit.
const MaxAlertWireSize = MaxMigrateWireSize

// AlertKindWindow and AlertKindThreshold label what fired: a closed
// aggregation window, or a predicate crossing inside one.
const (
	AlertKindWindow    = "window"
	AlertKindThreshold = "threshold"
)

// Alert is one fired continuous-query result.
type Alert struct {
	// SubID names the standing subscription that fired.
	SubID string `json:"subId"`
	// FiredBy is the fog node that evaluated the window. Together with
	// SubID, StartUnix and Kind it forms the alert's instance identity:
	// retries and re-batched pushes may deliver the same instance
	// twice, and receivers dedup on it.
	FiredBy string `json:"firedBy"`
	// Kind is AlertKindWindow or AlertKindThreshold.
	Kind string `json:"kind"`
	// StartUnix and EndUnix bound the window (unix nanoseconds).
	StartUnix int64 `json:"startUnix"`
	EndUnix   int64 `json:"endUnix"`
	// Summary is the window's decomposable aggregate — complete for a
	// window alert, partial (readings seen up to the crossing) for a
	// threshold alert.
	Summary aggregate.Summary `json:"summary"`
	// Value is the reading that crossed the predicate (threshold
	// alerts only; zero otherwise).
	Value float64 `json:"value,omitempty"`
}

// Key is the alert's instance identity, stable across retries and
// push re-batching.
func (a *Alert) Key() string {
	var sb strings.Builder
	sb.WriteString(a.FiredBy)
	sb.WriteByte('|')
	sb.WriteString(a.SubID)
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatInt(a.StartUnix, 10))
	sb.WriteByte('|')
	sb.WriteString(a.Kind)
	return sb.String()
}

// AlertPush is a batch of fired alerts moving upward under one
// delivery identity.
type AlertPush struct {
	// Origin is the node that sealed this push — usually the firing
	// node: a forwarding fog2 tier stores and re-sends absorbed fog1
	// pushes verbatim, original identity preserved (only retry-queue
	// folding re-seals, and then under the younger push's identity).
	Origin string `json:"origin"`
	// Seq is the delivery sequence in Origin's shared batch/summary
	// sequence space.
	Seq uint64 `json:"seq"`
	// TypeName is the sensor type the subscription watches.
	TypeName string `json:"type"`
	// Category tags the traffic class for the matrix.
	Category string `json:"category,omitempty"`
	// Alerts are the fired instances, oldest first.
	Alerts []Alert `json:"alerts"`
}

// Validate checks semantic invariants after a decode.
func (p *AlertPush) Validate() error {
	switch {
	case p.Origin == "":
		return fmt.Errorf("protocol: alert push without an origin")
	case p.Seq == 0:
		return fmt.Errorf("protocol: alert push without a sequence")
	case p.TypeName == "":
		return fmt.Errorf("protocol: alert push without a type")
	case len(p.Alerts) == 0:
		return fmt.Errorf("protocol: alert push carries no alerts")
	}
	for i := range p.Alerts {
		a := &p.Alerts[i]
		switch {
		case a.SubID == "":
			return fmt.Errorf("protocol: alert %d without a subscription id", i)
		case a.FiredBy == "":
			return fmt.Errorf("protocol: alert %d without a firing node", i)
		case a.Kind != AlertKindWindow && a.Kind != AlertKindThreshold:
			return fmt.Errorf("protocol: alert %d with kind %q", i, a.Kind)
		case a.EndUnix <= a.StartUnix:
			return fmt.Errorf("protocol: alert %d with empty window [%d, %d)", i, a.StartUnix, a.EndUnix)
		case a.Summary.Count <= 0:
			return fmt.Errorf("protocol: alert %d with no readings", i)
		case math.IsNaN(a.Value) || math.IsInf(a.Value, 0):
			return fmt.Errorf("protocol: alert %d with non-finite value", i)
		}
	}
	return nil
}

// AppendAlertPush appends the encoded push to dst.
func AppendAlertPush(dst []byte, p *AlertPush) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, alertMagic, alertVersion)
	dst = wal.AppendString(dst, p.Origin)
	dst = wal.AppendString(dst, p.TypeName)
	dst = wal.AppendString(dst, p.Category)
	dst = wal.AppendUint64(dst, p.Seq)
	dst = wal.AppendUvarint(dst, uint64(len(p.Alerts)))
	for i := range p.Alerts {
		a := &p.Alerts[i]
		dst = wal.AppendString(dst, a.SubID)
		dst = wal.AppendString(dst, a.FiredBy)
		dst = wal.AppendString(dst, a.Kind)
		dst = wal.AppendUint64(dst, uint64(a.StartUnix))
		dst = wal.AppendUint64(dst, uint64(a.EndUnix))
		dst = wal.AppendUint64(dst, uint64(a.Summary.Count))
		dst = wal.AppendUint64(dst, math.Float64bits(a.Summary.Sum))
		dst = wal.AppendUint64(dst, math.Float64bits(a.Summary.Min))
		dst = wal.AppendUint64(dst, math.Float64bits(a.Summary.Max))
		dst = wal.AppendUint64(dst, math.Float64bits(a.Value))
	}
	if len(dst) > MaxAlertWireSize {
		return nil, fmt.Errorf("protocol: alert push of %d bytes exceeds limit %d", len(dst), MaxAlertWireSize)
	}
	return dst, nil
}

// EncodeAlertPush encodes a push into a fresh buffer.
func EncodeAlertPush(p *AlertPush) ([]byte, error) {
	return AppendAlertPush(make([]byte, 0, 128), p)
}

// DecodeAlertPush decodes an alert-push payload. Arbitrary bytes fail
// with an error, never a panic.
func DecodeAlertPush(data []byte) (*AlertPush, error) {
	if len(data) > MaxAlertWireSize {
		return nil, fmt.Errorf("protocol: alert push of %d bytes exceeds limit %d", len(data), MaxAlertWireSize)
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("protocol: alert push too short (%d bytes)", len(data))
	}
	if data[0] != alertMagic {
		return nil, fmt.Errorf("protocol: bad alert magic 0x%02x", data[0])
	}
	if data[1] != alertVersion {
		return nil, fmt.Errorf("protocol: unsupported alert version %d", data[1])
	}
	rest := data[2:]
	p := &AlertPush{}
	var err error
	if p.Origin, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: alert origin: %w", err)
	}
	if p.TypeName, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: alert type: %w", err)
	}
	if p.Category, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: alert category: %w", err)
	}
	if p.Seq, rest, err = wal.ReadUint64(rest); err != nil {
		return nil, fmt.Errorf("protocol: alert sequence: %w", err)
	}
	nAlerts, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: alert count: %w", err)
	}
	// Each alert consumes at least 59 bytes; a count beyond the
	// remaining payload is hostile.
	if nAlerts > uint64(len(rest)) {
		return nil, fmt.Errorf("protocol: alert push claims %d alerts in %d bytes", nAlerts, len(rest))
	}
	p.Alerts = make([]Alert, 0, nAlerts)
	for i := uint64(0); i < nAlerts; i++ {
		var a Alert
		if a.SubID, rest, err = wal.ReadString(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d sub: %w", i, err)
		}
		if a.FiredBy, rest, err = wal.ReadString(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d source: %w", i, err)
		}
		if a.Kind, rest, err = wal.ReadString(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d kind: %w", i, err)
		}
		var u uint64
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d start: %w", i, err)
		}
		a.StartUnix = int64(u)
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d end: %w", i, err)
		}
		a.EndUnix = int64(u)
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d count: %w", i, err)
		}
		a.Summary.Count = int64(u)
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d sum: %w", i, err)
		}
		a.Summary.Sum = math.Float64frombits(u)
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d min: %w", i, err)
		}
		a.Summary.Min = math.Float64frombits(u)
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d max: %w", i, err)
		}
		a.Summary.Max = math.Float64frombits(u)
		if u, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: alert %d value: %w", i, err)
		}
		a.Value = math.Float64frombits(u)
		p.Alerts = append(p.Alerts, a)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after alert push", len(rest))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// SortAlerts orders alerts deterministically by (SubID, StartUnix,
// FiredBy, Kind) — the order pushes and stores present them in.
func SortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		a, b := &alerts[i], &alerts[j]
		if a.SubID != b.SubID {
			return a.SubID < b.SubID
		}
		if a.StartUnix != b.StartUnix {
			return a.StartUnix < b.StartUnix
		}
		if a.FiredBy != b.FiredBy {
			return a.FiredBy < b.FiredBy
		}
		return a.Kind < b.Kind
	})
}
