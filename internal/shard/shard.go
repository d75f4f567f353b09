// Package shard provides the hash shared by the sharded structures
// on the concurrent ingest path (fognode pending buffers, the
// time-series store, the deduper), so shard selection stays
// consistent and is maintained in one place, and the consistent-hash
// ring that assigns sensor types to the fog siblings of a district
// under elastic ownership.
package shard

// FNV32a returns the 32-bit FNV-1a hash of s. Callers mask it with
// (shardCount - 1); shard counts are powers of two.
func FNV32a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}
