package cloud

import (
	"fmt"
	"sync"
	"time"

	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/wal"
)

// The cloud journal persists the preservation block: every batch the
// cloud accepts is journaled (with the delivering hop and its delivery
// sequence) before it is archived, and data-destruction cutoffs are
// journaled so recovery does not resurrect expired records. The
// journal mutex makes append+apply atomic against checkpoints, so a
// snapshot is always a consistent cut of the archive plus the replay
// filter deduping at-least-once retries.
//
// Snapshot layout (version 3; version 2 lacked the alert section and
// version 1 additionally lacked the preserve counter — both are still
// accepted, v1 falling back to the record count):
//
//	[version u8]
//	[preserveSeq u64]                       (version >= 2)
//	[origins uvarint] { [origin string] [n uvarint] { [seq u64] }* }*
//	[records uvarint] { [provenance uvarint { [node string] }*]
//	                    [batch bytes (sensor wire, uvarint-framed)] }*
//	[alerts uvarint] { [instance JSON (protocol.Alert, uvarint-framed)] }*   (version >= 3)
//
// Restored records re-enter through the same classification path as
// live preserves; StoredAt is re-stamped with the recovery clock,
// which only affects provenance metadata, never the preserved
// readings.
const (
	cloudJournalVersion   = 3
	cloudJournalVersionV2 = 2
	cloudJournalVersionV1 = 1

	recPreserve  = 1 // pre-numbering preserve (read-side only)
	recExpire    = 2
	recPreserve2 = 3 // preserve carrying its preserve number
	recAlert     = 4 // accepted alert push (raw wire payload)
)

type cloudJournal struct {
	mu     sync.Mutex
	store  *wal.Store
	buf    []byte
	closed bool
}

func openCloudJournal(cfg wal.Config) (*cloudJournal, error) {
	st, err := wal.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &cloudJournal{store: st}, nil
}

// appendPreserve journals one accepted batch under its preserve
// number pseq and the delivering hop's sequence seq. The caller holds
// j.mu for the whole append+apply sequence.
func (j *cloudJournal) appendPreserveLocked(pseq, seq uint64, from string, b *model.Batch) error {
	if j.closed {
		return fmt.Errorf("cloud: journal closed")
	}
	j.buf = append(j.buf[:0], recPreserve2)
	j.buf = wal.AppendUint64(j.buf, pseq)
	j.buf = wal.AppendUint64(j.buf, seq)
	j.buf = wal.AppendString(j.buf, from)
	j.buf = sensor.AppendBatch(j.buf, b)
	return j.store.Append(j.buf)
}

// appendAlertLocked journals one accepted alert push verbatim (the
// payload already carries its (Origin, Seq) delivery identity and the
// per-alert instance identities, so replay recovers both the dedup
// mark and the stored instances from one record). The caller holds
// j.mu for the whole append+apply sequence.
func (j *cloudJournal) appendAlertLocked(payload []byte) error {
	if j.closed {
		return fmt.Errorf("cloud: journal closed")
	}
	j.buf = append(j.buf[:0], recAlert)
	j.buf = append(j.buf, payload...)
	return j.store.Append(j.buf)
}

func (j *cloudJournal) appendExpireLocked(before time.Time) error {
	if j.closed {
		return fmt.Errorf("cloud: journal closed")
	}
	j.buf = append(j.buf[:0], recExpire)
	j.buf = wal.AppendUint64(j.buf, uint64(before.UnixNano()))
	return j.store.Append(j.buf)
}

func (j *cloudJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.store.Close()
}

// encodeCloudSnapshot folds the preserve counter, the archive, the
// filter dump and the stored alert instances into one snapshot
// payload.
func encodeCloudSnapshot(dst []byte, preserveSeq uint64, marks map[string][]uint64, records []archivedRecord, alerts []protocol.Alert) ([]byte, error) {
	dst = append(dst, cloudJournalVersion)
	dst = wal.AppendUint64(dst, preserveSeq)
	dst = wal.AppendMarkSet(dst, marks)
	dst = wal.AppendUvarint(dst, uint64(len(records)))
	var wire []byte
	for _, rec := range records {
		dst = wal.AppendUvarint(dst, uint64(len(rec.provenance)))
		for _, node := range rec.provenance {
			dst = wal.AppendString(dst, node)
		}
		wire = sensor.AppendBatch(wire[:0], rec.batch)
		dst = wal.AppendBytes(dst, wire)
	}
	dst = wal.AppendUvarint(dst, uint64(len(alerts)))
	for i := range alerts {
		doc, err := protocol.EncodeJSON(alerts[i])
		if err != nil {
			return nil, fmt.Errorf("cloud: snapshot alert: %w", err)
		}
		dst = wal.AppendBytes(dst, doc)
	}
	return dst, nil
}

// archivedRecord is the snapshot shape of one preserved batch.
type archivedRecord struct {
	provenance []string
	batch      *model.Batch
}

// cloudRecovery is the decoded durable state of a cloud node: the
// snapshot's archived records (full provenance), then the journal
// tail's preserves and expires in log order.
type cloudRecovery struct {
	marks   []cloudMark
	records []archivedRecord
	// alerts are the snapshot's stored alert instances (already
	// deduped by instance key when the snapshot was cut).
	alerts []protocol.Alert
	tail   []tailOp
	// preserveSeq is the snapshot's preserve counter: the highest
	// number assigned to any preserve folded into the snapshot. A
	// version-1 snapshot (pre-numbering) falls back to its record
	// count, which is exact when nothing ever expired and otherwise a
	// safe lower bound (version-1 lives never numbered their series
	// appends, so no watermark exists to collide with).
	preserveSeq uint64
}

type cloudMark struct {
	origin string
	seq    uint64
}

// tailOp is one replayed journal record: a preserve (batch set, with
// its preserve number when journaled by a numbering cloud), an alert
// push (alerts set) or an expire (before set).
type tailOp struct {
	batch  *model.Batch
	from   string
	pseq   uint64
	alerts *protocol.AlertPush
	before time.Time
}

func decodeCloudSnapshot(data []byte, rs *cloudRecovery) error {
	if len(data) == 0 {
		return nil
	}
	version := data[0]
	if version != cloudJournalVersion && version != cloudJournalVersionV2 && version != cloudJournalVersionV1 {
		return fmt.Errorf("cloud: unsupported snapshot version %d", version)
	}
	rest := data[1:]
	var err error
	if version >= 2 {
		rs.preserveSeq, rest, err = wal.ReadUint64(rest)
		if err != nil {
			return err
		}
	}
	rest, err = wal.ReadMarkSet(rest, func(origin string, seq uint64) {
		rs.marks = append(rs.marks, cloudMark{origin: origin, seq: seq})
	})
	if err != nil {
		return err
	}
	records, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return err
	}
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
		rs.records = append(rs.records, archivedRecord{provenance: prov, batch: b})
	}
	if version >= 3 {
		var alerts uint64
		alerts, rest, err = wal.ReadUvarint(rest)
		if err != nil {
			return err
		}
		for i := uint64(0); i < alerts; i++ {
			var doc []byte
			doc, rest, err = wal.ReadBytes(rest)
			if err != nil {
				return err
			}
			var a protocol.Alert
			if err := protocol.DecodeJSON(doc, &a); err != nil {
				return fmt.Errorf("cloud: snapshot alert: %w", err)
			}
			rs.alerts = append(rs.alerts, a)
		}
	}
	if version == cloudJournalVersionV1 {
		rs.preserveSeq = uint64(len(rs.records))
	}
	return nil
}

func (rs *cloudRecovery) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("cloud: empty journal record")
	}
	body := rec[1:]
	switch rec[0] {
	case recPreserve, recPreserve2:
		var pseq uint64
		var err error
		if rec[0] == recPreserve2 {
			pseq, body, err = wal.ReadUint64(body)
			if err != nil {
				return err
			}
		}
		seq, rest, err := wal.ReadUint64(body)
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
		rs.tail = append(rs.tail, tailOp{batch: b, from: from, pseq: pseq})
		if seq != 0 {
			rs.marks = append(rs.marks, cloudMark{origin: b.NodeID, seq: seq})
		}
	case recAlert:
		push, err := protocol.DecodeAlertPush(body)
		if err != nil {
			return fmt.Errorf("cloud: journal alert: %w", err)
		}
		rs.tail = append(rs.tail, tailOp{alerts: push})
		rs.marks = append(rs.marks, cloudMark{origin: push.Origin, seq: push.Seq})
	case recExpire:
		ns, _, err := wal.ReadUint64(body)
		if err != nil {
			return err
		}
		rs.tail = append(rs.tail, tailOp{before: time.Unix(0, int64(ns))})
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
