package protocol

import (
	"fmt"

	"f2c/internal/wal"
)

// Migration wire format (transport.KindMigrate payloads).
//
// A migration moves one sensor type's delivery state from its old
// fog owner to its new one: the frozen-sequence retry queue and
// sealed pending buffer travel as the SAME sealed envelopes the
// upward path uses (Sealer.SealSeq output, opaque bytes), so the
// sequence space is preserved end to end — the target's flushes
// present the original (origin, seq) identities and every
// replay-filter downstream keeps deduping exactly as before the
// handoff. Degrade-summary buffers travel as their JSON pushes with
// their shared-space sequences, and the source's replay-filter marks
// ride along so the target inherits the source's dedup horizon.
//
// Layout (all integers via the wal binary helpers):
//
//	0xF3 version=2
//	typeName from to          (uvarint-prefixed strings)
//	transferSeq               (8 bytes)
//	nEntries { seq, payload } (sealed batch envelopes)
//	nSummaries { seq, json }  (SummaryPush documents)
//	markSet                   (origin -> seqs)
//	nAlerts { seq, payload }  (encoded AlertPush pushes; v2 only)
//	nSubs { json }            (cq subscription-state documents; v2 only)
//
// Version 2 appends the continuous-query sections: the moved type's
// standing subscriptions (with their live window panes, so an open
// window keeps accumulating on the new owner instead of double- or
// zero-counting) and the queued alert pushes awaiting upward
// delivery. A v1 payload still decodes (empty cq sections).
//
// A transfer is bounded by MaxMigrateWireSize; one transfer carries a
// chunk of a shard, never the whole node state, which is what keeps
// rebalance traffic proportional to the moved shards.
const (
	migrateMagic   = 0xF3
	migrateVersion = 2
)

// migrateHeadroom is the room a transfer header, summaries, and marks
// get on top of the batch-envelope bound: a transfer carrying a
// single maximum-size sealed batch must still encode.
const migrateHeadroom = 4 << 10

// MaxMigrateWireSize bounds an encoded migration transfer: room for
// one maximum-size sealed envelope plus headroom, and never more than
// what the socket transport's frame limit accepts.
const MaxMigrateWireSize = MaxBatchWireSize + migrateHeadroom

// MigrateSizeError reports a transfer rejected for exceeding
// MaxMigrateWireSize. Sources split shard state into bounded chunks;
// an oversized transfer is a bug or a hostile payload, never retried.
type MigrateSizeError struct {
	// Size is the offending transfer's encoded size.
	Size int
	// Limit is the enforced bound.
	Limit int
}

// Error implements error.
func (e *MigrateSizeError) Error() string {
	return fmt.Sprintf("protocol: migration transfer of %d bytes exceeds limit %d", e.Size, e.Limit)
}

// MigrateEntry is one sealed batch moving to the new owner.
type MigrateEntry struct {
	// Seq is the frozen delivery sequence (the same value sealed into
	// the envelope header).
	Seq uint64
	// Payload is the sealed envelope (Sealer.SealSeq output),
	// opaque to the migration codec.
	Payload []byte
}

// MigrateSummary is one degraded-window summary moving to the new
// owner. Its sequence shares the batch sequence space.
type MigrateSummary struct {
	Seq  uint64
	Push SummaryPush
}

// MigrateAlert is one queued continuous-query alert push moving to
// the new owner. Its sequence shares the batch sequence space; the
// payload is an encoded AlertPush kept opaque so the original
// (Origin, Seq) identity and alert instances survive the move intact.
type MigrateAlert struct {
	Seq     uint64
	Payload []byte
}

// MigrateTransfer is one chunk of a live shard handoff.
type MigrateTransfer struct {
	// TypeName is the sensor type whose ownership moves.
	TypeName string
	// From and To are the old and new owner node IDs.
	From string
	To   string
	// TransferSeq identifies this chunk in the source's sequence
	// space; the target marks it in its replay filter so a retried
	// transfer is absorbed exactly once.
	TransferSeq uint64
	// Entries are the sealed batches of the moved shard.
	Entries []MigrateEntry
	// Summaries are the sealed degrade-window summaries.
	Summaries []MigrateSummary
	// Marks is the slice of the source's replay-filter state moving
	// with the shard.
	Marks map[string][]uint64
	// Alerts are the queued continuous-query pushes of the moved type,
	// oldest first.
	Alerts []MigrateAlert
	// Subs are the moved type's standing subscriptions with their live
	// window state, as opaque cq snapshot JSON documents.
	Subs [][]byte
}

// Validate checks semantic invariants after a decode.
func (t *MigrateTransfer) Validate() error {
	switch {
	case t.TypeName == "":
		return fmt.Errorf("protocol: migration transfer without a type")
	case t.From == "":
		return fmt.Errorf("protocol: migration transfer without a source")
	case t.To == "":
		return fmt.Errorf("protocol: migration transfer without a target")
	case t.From == t.To:
		return fmt.Errorf("protocol: migration transfer from %q to itself", t.From)
	case t.TransferSeq == 0:
		return fmt.Errorf("protocol: migration transfer without a sequence")
	}
	for i := range t.Entries {
		if t.Entries[i].Seq == 0 {
			return fmt.Errorf("protocol: migration entry %d without a sequence", i)
		}
		if len(t.Entries[i].Payload) == 0 {
			return fmt.Errorf("protocol: migration entry %d without a payload", i)
		}
	}
	for i := range t.Summaries {
		if t.Summaries[i].Seq == 0 {
			return fmt.Errorf("protocol: migration summary %d without a sequence", i)
		}
		if err := t.Summaries[i].Push.Validate(); err != nil {
			return fmt.Errorf("protocol: migration summary %d: %w", i, err)
		}
	}
	for i := range t.Alerts {
		if t.Alerts[i].Seq == 0 {
			return fmt.Errorf("protocol: migration alert %d without a sequence", i)
		}
		if len(t.Alerts[i].Payload) == 0 {
			return fmt.Errorf("protocol: migration alert %d without a payload", i)
		}
	}
	for i := range t.Subs {
		if len(t.Subs[i]) == 0 {
			return fmt.Errorf("protocol: migration subscription %d without a document", i)
		}
	}
	return nil
}

// AppendMigrateTransfer appends the encoded transfer to dst. The
// encoded chunk must fit MaxMigrateWireSize or a *MigrateSizeError is
// returned.
func AppendMigrateTransfer(dst []byte, t *MigrateTransfer) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, migrateMagic, migrateVersion)
	dst = wal.AppendString(dst, t.TypeName)
	dst = wal.AppendString(dst, t.From)
	dst = wal.AppendString(dst, t.To)
	dst = wal.AppendUint64(dst, t.TransferSeq)
	dst = wal.AppendUvarint(dst, uint64(len(t.Entries)))
	for i := range t.Entries {
		dst = wal.AppendUint64(dst, t.Entries[i].Seq)
		dst = wal.AppendBytes(dst, t.Entries[i].Payload)
	}
	dst = wal.AppendUvarint(dst, uint64(len(t.Summaries)))
	for i := range t.Summaries {
		doc, err := EncodeJSON(t.Summaries[i].Push)
		if err != nil {
			return nil, fmt.Errorf("protocol: encode migration summary: %w", err)
		}
		dst = wal.AppendUint64(dst, t.Summaries[i].Seq)
		dst = wal.AppendBytes(dst, doc)
	}
	dst = wal.AppendMarkSet(dst, t.Marks)
	dst = wal.AppendUvarint(dst, uint64(len(t.Alerts)))
	for i := range t.Alerts {
		dst = wal.AppendUint64(dst, t.Alerts[i].Seq)
		dst = wal.AppendBytes(dst, t.Alerts[i].Payload)
	}
	dst = wal.AppendUvarint(dst, uint64(len(t.Subs)))
	for i := range t.Subs {
		dst = wal.AppendBytes(dst, t.Subs[i])
	}
	if size := len(dst) - start; size > MaxMigrateWireSize {
		return nil, &MigrateSizeError{Size: size, Limit: MaxMigrateWireSize}
	}
	return dst, nil
}

// EncodeMigrateTransfer encodes a transfer into a fresh buffer.
func EncodeMigrateTransfer(t *MigrateTransfer) ([]byte, error) {
	return AppendMigrateTransfer(make([]byte, 0, 256), t)
}

// DecodeMigrateTransfer decodes a transfer payload. Arbitrary bytes
// fail with an error, never a panic; payloads beyond
// MaxMigrateWireSize fail with *MigrateSizeError before any decoding.
func DecodeMigrateTransfer(data []byte) (*MigrateTransfer, error) {
	if len(data) > MaxMigrateWireSize {
		return nil, &MigrateSizeError{Size: len(data), Limit: MaxMigrateWireSize}
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("protocol: migration transfer too short (%d bytes)", len(data))
	}
	if data[0] != migrateMagic {
		return nil, fmt.Errorf("protocol: bad migration magic 0x%02x", data[0])
	}
	version := data[1]
	if version == 0 || version > migrateVersion {
		return nil, fmt.Errorf("protocol: unsupported migration version %d", version)
	}
	rest := data[2:]
	t := &MigrateTransfer{}
	var err error
	if t.TypeName, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration type: %w", err)
	}
	if t.From, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration source: %w", err)
	}
	if t.To, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration target: %w", err)
	}
	if t.TransferSeq, rest, err = wal.ReadUint64(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration sequence: %w", err)
	}
	nEntries, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: migration entry count: %w", err)
	}
	// Each entry consumes at least 9 bytes; a count beyond the
	// remaining payload is hostile.
	if nEntries > uint64(len(rest)) {
		return nil, fmt.Errorf("protocol: migration claims %d entries in %d bytes", nEntries, len(rest))
	}
	t.Entries = make([]MigrateEntry, 0, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		var e MigrateEntry
		if e.Seq, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: migration entry %d seq: %w", i, err)
		}
		var payload []byte
		if payload, rest, err = wal.ReadBytes(rest); err != nil {
			return nil, fmt.Errorf("protocol: migration entry %d payload: %w", i, err)
		}
		e.Payload = append([]byte(nil), payload...)
		t.Entries = append(t.Entries, e)
	}
	nSummaries, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: migration summary count: %w", err)
	}
	if nSummaries > uint64(len(rest)) {
		return nil, fmt.Errorf("protocol: migration claims %d summaries in %d bytes", nSummaries, len(rest))
	}
	t.Summaries = make([]MigrateSummary, 0, nSummaries)
	for i := uint64(0); i < nSummaries; i++ {
		var s MigrateSummary
		if s.Seq, rest, err = wal.ReadUint64(rest); err != nil {
			return nil, fmt.Errorf("protocol: migration summary %d seq: %w", i, err)
		}
		var doc []byte
		if doc, rest, err = wal.ReadBytes(rest); err != nil {
			return nil, fmt.Errorf("protocol: migration summary %d doc: %w", i, err)
		}
		if err := DecodeJSON(doc, &s.Push); err != nil {
			return nil, fmt.Errorf("protocol: migration summary %d: %w", i, err)
		}
		t.Summaries = append(t.Summaries, s)
	}
	rest, err = wal.ReadMarkSet(rest, func(origin string, seq uint64) {
		if t.Marks == nil {
			t.Marks = make(map[string][]uint64)
		}
		t.Marks[origin] = append(t.Marks[origin], seq)
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: migration marks: %w", err)
	}
	if version >= 2 {
		nAlerts, r, err := wal.ReadUvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("protocol: migration alert count: %w", err)
		}
		rest = r
		if nAlerts > uint64(len(rest)) {
			return nil, fmt.Errorf("protocol: migration claims %d alerts in %d bytes", nAlerts, len(rest))
		}
		if nAlerts > 0 {
			t.Alerts = make([]MigrateAlert, 0, nAlerts)
		}
		for i := uint64(0); i < nAlerts; i++ {
			var a MigrateAlert
			if a.Seq, rest, err = wal.ReadUint64(rest); err != nil {
				return nil, fmt.Errorf("protocol: migration alert %d seq: %w", i, err)
			}
			var payload []byte
			if payload, rest, err = wal.ReadBytes(rest); err != nil {
				return nil, fmt.Errorf("protocol: migration alert %d payload: %w", i, err)
			}
			a.Payload = append([]byte(nil), payload...)
			t.Alerts = append(t.Alerts, a)
		}
		nSubs, r2, err := wal.ReadUvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("protocol: migration subscription count: %w", err)
		}
		rest = r2
		if nSubs > uint64(len(rest)) {
			return nil, fmt.Errorf("protocol: migration claims %d subscriptions in %d bytes", nSubs, len(rest))
		}
		if nSubs > 0 {
			t.Subs = make([][]byte, 0, nSubs)
		}
		for i := uint64(0); i < nSubs; i++ {
			var doc []byte
			if doc, rest, err = wal.ReadBytes(rest); err != nil {
				return nil, fmt.Errorf("protocol: migration subscription %d doc: %w", i, err)
			}
			t.Subs = append(t.Subs, append([]byte(nil), doc...))
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after migration transfer", len(rest))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
