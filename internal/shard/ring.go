package shard

import (
	"sort"
	"strconv"
	"sync"
)

// FNV64a returns the 64-bit FNV-1a hash of s. The consistent-hash
// ring uses the 64-bit variant so virtual-node points spread over a
// larger space and collisions between vnode labels are negligible.
func FNV64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 finalizes a hash with the splitmix64 avalanche so ring
// points derived from similar labels ("id#1", "id#2", ...) scatter
// uniformly; raw FNV keeps nearby inputs on nearby points, which
// skews ownership far past the 1.3 bound.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ringHash positions a label on the ring.
func ringHash(s string) uint64 { return mix64(FNV64a(s)) }

// virtualNodes is the number of points each member owns on the ring.
// 128 keeps the max/min ownership skew under 1.3 for realistic member
// counts (asserted in ring_test.go).
const virtualNodes = 128

// Ring is a consistent-hash ring with virtual nodes: every member owns
// virtualNodes points, and Owner(key) returns the member whose point
// follows the key's hash clockwise. It maps sensor types to the fog
// siblings that own them, so a membership change moves only the types
// whose owner actually changed. It is safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	members map[string]struct{}
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]struct{})}
}

// Add inserts a member. Adding an existing member is a no-op that never
// stacks points: a node listed in several district rosters keeps one
// share.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; ok || id == "" {
		return
	}
	r.members[id] = struct{}{}
	// Stratified placement: point i lands in stratum [i/v, (i+1)/v)
	// of the ring (v = virtualNodes), jittered by the label hash. Each member's points
	// are spread evenly instead of independently at random, which
	// keeps the max/min ownership skew within the 1.3 bound at 128
	// vnodes (independent points need ~4x more to match).
	step := ^uint64(0)/virtualNodes + 1
	for i := 0; i < virtualNodes; i++ {
		jitter := ringHash(id+"#"+strconv.Itoa(i)) % step
		r.points = append(r.points, ringPoint{hash: step*uint64(i) + jitter, node: id})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a member and all its points. Removing an absent
// member is a no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	r.removePoints(id)
}

func (r *Ring) removePoints(id string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// ownerProbes is the multi-probe count: Owner hashes the key to
// ownerProbes ring positions and picks the point with the smallest
// clockwise distance. Multi-probe lookup (Appleton & O'Reilly,
// "Multi-probe consistent hashing") tightens the ownership skew that
// single-probe rings suffer at moderate vnode counts, and it keeps
// the minimal-movement property: a join can only steal a key by
// shortening some probe's distance, which means the stolen key lands
// on the joiner.
const ownerProbes = 8

// Owner returns the member owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.owner(key)
}

func (r *Ring) owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := FNV64a(key)
	best := ""
	var bestDist uint64
	for p := 0; p < ownerProbes; p++ {
		probe := mix64(h + uint64(p)*0x9e3779b97f4a7c15)
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= probe })
		if i == len(r.points) {
			i = 0 // wrap: the first point clockwise from the top
		}
		dist := r.points[i].hash - probe // wraps modulo 2^64
		if best == "" || dist < bestDist {
			best, bestDist = r.points[i].node, dist
		}
	}
	return best, true
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Assign maps each type to its owner under the current membership.
func (r *Ring) Assign(types []string) map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]string, len(types))
	for _, t := range types {
		if owner, ok := r.owner(t); ok {
			out[t] = owner
		}
	}
	return out
}

// Move is one shard migration produced by a membership change: the
// type must travel from its old owner to its new one.
type Move struct {
	TypeName string
	From     string
	To       string
}

// Diff compares two assignments and returns the required moves,
// sorted by type name for deterministic execution order. Types
// present only in the new assignment arrive with an empty From
// (nothing to migrate); types that lost their owner entirely are
// skipped.
func Diff(old, cur map[string]string) []Move {
	var moves []Move
	for t, to := range cur {
		if from := old[t]; from != to {
			moves = append(moves, Move{TypeName: t, From: from, To: to})
		}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].TypeName < moves[b].TypeName })
	return moves
}
