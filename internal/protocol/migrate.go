package protocol

import (
	"errors"
	"fmt"

	"f2c/internal/wal"
)

// Migration wire format (transport.KindMigrate payloads).
//
// A migration moves one sensor type's delivery state from its old
// fog owner to its new one. The type's outbox is one list of items —
// batches, summary pushes, alert pushes — and a chunk carries a slice
// of that list as it is: each item is its kind and its upward payload,
// byte for byte what the parent would receive (the SealSeq envelope of
// a batch, the JSON of a summary push, the encoded AlertPush of an
// alert). Every payload carries its own (origin, seq), so the sequence
// space is preserved end to end: the target's flushes present the
// original identities and every replay filter downstream keeps
// deduping exactly as before the handoff. The source's replay-filter
// marks ride along so the target inherits its dedup horizon, and the
// moved type's standing subscriptions travel with their live window
// panes, so an open window keeps accumulating on the new owner
// instead of double- or zero-counting.
//
// Layout (all integers via the wal binary helpers):
//
//	0xF3 version=3
//	typeName from to          (uvarint-prefixed strings)
//	transferSeq               (8 bytes)
//	nItems { kind, payload }  (kind: one byte)
//	markSet                   (origin -> seqs)
//	nSubs { json }            (cq subscription-state documents)
//
// Only version 3 decodes. Versions 1 and 2 split the items into three
// sections and are refused with ErrMigrateVersion.
//
// A transfer is bounded by MaxMigrateWireSize; one transfer carries a
// chunk of a shard, never the whole node state, which is what keeps
// rebalance traffic proportional to the moved shards.
const (
	migrateMagic   = 0xF3
	migrateVersion = 3
)

// ErrMigrateVersion is wrapped by the decode error of a chunk written
// in a wire version other than migrateVersion.
var ErrMigrateVersion = errors.New("protocol: unsupported migration chunk version")

// migrateHeadroom is the room a transfer header, item framing and
// marks get on top of the batch-envelope bound: a transfer carrying a
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

// MigrateItem is one outbox item of the moved type.
type MigrateItem struct {
	// Kind is the item's kind as the fog outbox ranks it: 0 batch,
	// 1 summary push, 2 alert push. The codec carries it opaquely.
	Kind byte
	// Payload is the item's upward payload, which carries its own
	// delivery identity.
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
	// Items are the moved outbox items.
	Items []MigrateItem
	// Marks is the slice of the source's replay-filter state moving
	// with the shard.
	Marks map[string][]uint64
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
	for i := range t.Items {
		if len(t.Items[i].Payload) == 0 {
			return fmt.Errorf("protocol: migration item %d without a payload", i)
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
	dst = wal.AppendUvarint(dst, uint64(len(t.Items)))
	for i := range t.Items {
		dst = append(dst, t.Items[i].Kind)
		dst = wal.AppendBytes(dst, t.Items[i].Payload)
	}
	dst = wal.AppendMarkSet(dst, t.Marks)
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
	if data[1] != migrateVersion {
		return nil, fmt.Errorf("%w %d, want %d", ErrMigrateVersion, data[1], migrateVersion)
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
	nItems, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: migration item count: %w", err)
	}
	// Each item consumes at least 2 bytes; a count beyond the
	// remaining payload is hostile.
	if nItems > uint64(len(rest)) {
		return nil, fmt.Errorf("protocol: migration claims %d items in %d bytes", nItems, len(rest))
	}
	t.Items = make([]MigrateItem, 0, nItems)
	for i := uint64(0); i < nItems; i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("protocol: migration item %d kind: truncated", i)
		}
		it := MigrateItem{Kind: rest[0]}
		var payload []byte
		if payload, rest, err = wal.ReadBytes(rest[1:]); err != nil {
			return nil, fmt.Errorf("protocol: migration item %d payload: %w", i, err)
		}
		it.Payload = append([]byte(nil), payload...)
		t.Items = append(t.Items, it)
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
	nSubs, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: migration subscription count: %w", err)
	}
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
	if len(rest) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after migration transfer", len(rest))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
