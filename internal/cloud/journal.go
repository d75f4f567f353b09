package cloud

import (
	"fmt"
	"time"

	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/store"
	"f2c/internal/wal"
)

// The cloud journal persists the preservation block: every batch the
// cloud accepts is journaled (with the delivering hop and its delivery
// sequence) before it is archived, every accepted alert and summary
// push before it is stored, and data-destruction cutoffs so recovery
// does not resurrect expired records. The journal itself, its recovery
// driver and its checkpoint are the shared durable core
// (internal/durable); what is cloud-specific is here: the record
// table and the snapshot body. The cloud holds the journal mutex
// across append and apply (durable.Journal.Apply), so a snapshot is
// always a consistent cut of the archive, the series, the held alerts
// and degraded windows, and the replay filter deduping at-least-once
// retries. A preserve record is also the series append's log: the
// segment store keeps none. Recovery applies the snapshot, then each
// tail record in log order, to the node as it reads them, through the
// transition the live accept runs after its append (applyPreserve,
// storeAlerts, foldSummary, applyExpire); nothing is left to install
// after the log.
//
// Snapshot body layout (version 5, the only one read; the durable core
// writes the store section ahead of it, with the op counter that
// numbered preserves in earlier versions):
//
//	[version u8]
//	[origins uvarint] { [origin string] [n uvarint] { [seq u64] }* }*
//	[records uvarint] { [provenance uvarint { [node string] }*]
//	                    [batch bytes (sensor wire, uvarint-framed)] }*
//	[alerts uvarint] { [instance JSON (protocol.Alert, uvarint-framed)] }*
//	[windows uvarint] { [SummaryPush JSON, one per type, uvarint-framed] }*
//
// The window section is the encoding a fog node's snapshot uses for
// its degrade buffers. Restored records re-enter through the same
// classification path as live preserves; StoredAt is re-stamped with
// the recovery clock, which only affects provenance metadata, never
// the preserved readings.
//
// Record type 1, the preserve written before preserves were numbered,
// is retired: a log holding one is refused.
const (
	cloudSnapshotVersion = 5

	recExpire    = 2
	recPreserve2 = 3 // preserve; its first field, once a store op number, is written 0
	recAlert     = 4 // accepted alert push (raw wire payload)
	recSummary   = 5 // accepted summary push (payload record, as a fog node's recAbsorb)
)

// encodeCloudSnapshot folds the archive, the filter dump, the stored
// alert instances and the held degraded windows into one snapshot
// body appended to dst.
func encodeCloudSnapshot(dst []byte, marks map[string][]uint64, records []store.Record, alerts []protocol.Alert, windows []protocol.SummaryPush) ([]byte, error) {
	dst = append(dst, cloudSnapshotVersion)
	dst = wal.AppendMarkSet(dst, marks)
	dst = wal.AppendUvarint(dst, uint64(len(records)))
	var wire []byte
	for _, rec := range records {
		dst = wal.AppendUvarint(dst, uint64(len(rec.Provenance)))
		for _, node := range rec.Provenance {
			dst = wal.AppendString(dst, node)
		}
		wire = sensor.AppendBatch(wire[:0], rec.Batch)
		dst = wal.AppendBytes(dst, wire)
	}
	dst, err := wal.AppendDocs(dst, alerts, func(a *protocol.Alert) ([]byte, error) { return protocol.EncodeJSON(a) })
	if err != nil {
		return nil, fmt.Errorf("cloud: snapshot alert: %w", err)
	}
	dst, err = wal.AppendDocs(dst, windows, func(p *protocol.SummaryPush) ([]byte, error) { return protocol.EncodeJSON(p) })
	if err != nil {
		return nil, fmt.Errorf("cloud: snapshot windows: %w", err)
	}
	return dst, nil
}

// restore applies a checkpoint body to the node as it reads it: the
// marks, the archived records (full provenance; the series' state at
// the checkpoint comes back with the store section the durable core
// restores), the stored alert instances and the held windows.
func (n *Node) restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if version := data[0]; version != cloudSnapshotVersion {
		return fmt.Errorf("cloud: unsupported snapshot version %d", version)
	}
	rest, err := wal.ReadMarkSet(data[1:], n.replay.Mark)
	if err != nil {
		return err
	}
	records, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return err
	}
	now := n.cfg.Clock.Now()
	for i := uint64(0); i < records; i++ {
		var hops uint64
		hops, rest, err = wal.ReadUvarint(rest)
		if err != nil {
			return err
		}
		// hops is untrusted: grow the slice by appends instead of
		// preallocating from a corrupt count.
		var prov []string
		for k := uint64(0); k < hops; k++ {
			var node string
			node, rest, err = wal.ReadString(rest)
			if err != nil {
				return err
			}
			prov = append(prov, node)
		}
		var wire []byte
		wire, rest, err = wal.ReadBytes(rest)
		if err != nil {
			return err
		}
		b, err := sensor.DecodeBatch(wire)
		if err != nil {
			return fmt.Errorf("cloud: snapshot batch: %w", err)
		}
		if _, err := n.archive.Put(b, prov, now); err != nil {
			return err
		}
	}
	rest, err = wal.ReadDocs(rest, func(doc []byte) error {
		var a protocol.Alert
		if err := protocol.DecodeJSON(doc, &a); err != nil {
			return fmt.Errorf("cloud: snapshot alert: %w", err)
		}
		n.storeAlerts(&protocol.AlertPush{Alerts: []protocol.Alert{a}})
		return nil
	})
	if err != nil {
		return err
	}
	_, err = wal.ReadDocs(rest, func(doc []byte) error {
		push, err := decodeSummaryPush(doc)
		if err == nil {
			n.foldSummary(push)
		}
		return err
	})
	return err
}

func decodeSummaryPush(doc []byte) (*protocol.SummaryPush, error) {
	var push protocol.SummaryPush
	if err := protocol.DecodeJSON(doc, &push); err != nil {
		return nil, fmt.Errorf("cloud: summary push: %w", err)
	}
	return &push, nil
}

// replayRecord applies one log record to the node through the
// transition the live accept ran after appending it. The tail is the
// crash window: the record landed but the live apply may not have, and
// every transition is idempotent over the snapshot (storeAlerts
// dedupes by instance key, marks are a set).
func (n *Node) replayRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("cloud: empty journal record")
	}
	body := rec[1:]
	switch rec[0] {
	case recPreserve2:
		// The first field is unused: a preserve's store op is the
		// record's position among the preserves, which the durable
		// core counts itself.
		_, rest, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		seq, rest, err := wal.ReadUint64(rest)
		if err != nil {
			return err
		}
		from, rest, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		b, err := sensor.DecodeBatch(rest)
		if err != nil {
			return fmt.Errorf("cloud: journal batch: %w", err)
		}
		return n.applyPreserve(b, from, seq)
	case recAlert:
		push, err := protocol.DecodeAlertPush(body)
		if err != nil {
			return fmt.Errorf("cloud: journal alert: %w", err)
		}
		n.storeAlerts(push)
	case recSummary:
		doc, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		push, err := decodeSummaryPush(doc)
		if err != nil {
			return err
		}
		n.foldSummary(push)
	case recExpire:
		ns, _, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		n.applyExpire(time.Unix(0, int64(ns)))
	default:
		return fmt.Errorf("cloud: unknown journal record type %d", rec[0])
	}
	return nil
}

// provenanceOf rebuilds the lineage Preserve records: origin, the
// delivering hop when distinct, and the cloud endpoint.
func provenanceOf(origin, from, cloudID string) []string {
	prov := []string{origin}
	if from != "" && from != origin {
		prov = append(prov, from)
	}
	return append(prov, cloudID)
}
