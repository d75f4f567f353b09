package core

// Elastic topology: runtime scale of fog layer 1 with live shard
// migration.
//
// With Options.ElasticOwnership each district's sections form a
// consistent-hash ownership ring (shard.Ring): a sensor type's edge
// ingest is served by its ring owner, not necessarily the section the
// batch arrived at. Because the ring moves only the types whose owner
// actually changed, AddFog1Node and RemoveFog1Node rebalance a
// district by migrating just those types' buffered delivery state
// between siblings (fognode.MigrateOut / transport.KindMigrate) and
// flipping the forwarding routes — ingest keeps flowing during the
// handoff, and the shared district parent's replay filter keeps
// delivery exactly-once across the ownership flip.
//
// Scale events serialize on one mutex; ingest routing only takes the
// read side of the ring state, so the hot path never waits on a
// migration.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"f2c/internal/protocol"
	"f2c/internal/shard"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

// elasticState is the per-district ownership bookkeeping behind
// Options.ElasticOwnership.
type elasticState struct {
	s *System

	// scaleMu serializes scale events (add/remove/rebalance); ingest
	// routing does not take it.
	scaleMu sync.Mutex

	// mu guards the maps below.
	mu sync.RWMutex
	// rings maps district (fog2 ID) to its ownership ring.
	rings map[string]*shard.Ring
	// seen maps district to every sensor type its ring has routed —
	// the type universe a membership change diffs over.
	seen map[string]map[string]struct{}
	// nextSection mints fresh section ordinals per district,
	// monotonic so a removed node's ID (and its DataDir journal
	// directory) is never reused by a later join.
	nextSection map[string]int
}

func newElasticState(s *System) *elasticState {
	el := &elasticState{
		s:           s,
		rings:       make(map[string]*shard.Ring),
		seen:        make(map[string]map[string]struct{}),
		nextSection: make(map[string]int),
	}
	for _, f2 := range s.topo.Fog2Nodes() {
		ring := shard.NewRing()
		next := 1
		for _, kid := range s.topo.Children(f2.ID) {
			ring.Add(kid)
			if sec := sectionOrdinal(kid); sec >= next {
				next = sec + 1
			}
		}
		el.rings[f2.ID] = ring
		el.seen[f2.ID] = make(map[string]struct{})
		el.nextSection[f2.ID] = next
	}
	return el
}

// sectionOrdinal parses the trailing section number of a fog1 ID
// ("fog1/d01-s07" -> 7), or 0 when the ID has a different shape.
func sectionOrdinal(id string) int {
	i := strings.LastIndex(id, "-s")
	if i < 0 {
		return 0
	}
	var sec int
	if _, err := fmt.Sscanf(id[i+2:], "%d", &sec); err != nil {
		return 0
	}
	return sec
}

// routeIngest resolves the ring owner of a type for an edge batch
// that arrived at fog1ID, recording the type in the district's seen
// set. ok is false when the node is unknown or its district has no
// ring (the caller falls back to direct ingest).
func (el *elasticState) routeIngest(fog1ID, typ string) (string, bool) {
	spec, ok := el.s.topo.Node(fog1ID)
	if !ok || spec.Layer != topology.LayerFog1 {
		return "", false
	}
	el.mu.RLock()
	ring := el.rings[spec.Parent]
	types := el.seen[spec.Parent]
	_, recorded := types[typ]
	el.mu.RUnlock()
	if ring == nil {
		return "", false
	}
	if !recorded {
		el.mu.Lock()
		el.seen[spec.Parent][typ] = struct{}{}
		el.mu.Unlock()
	}
	return ring.Owner(typ)
}

// seenTypes returns the district's recorded type universe, sorted.
func (el *elasticState) seenTypes(district string) []string {
	el.mu.RLock()
	defer el.mu.RUnlock()
	out := make([]string, 0, len(el.seen[district]))
	for typ := range el.seen[district] {
		out = append(out, typ)
	}
	sort.Strings(out)
	return out
}

// applyMoves executes the shard migrations a membership change
// produced: for every move the old owner freezes and hands the type's
// state to the new one, and every sibling still forwarding the type
// to the old owner is repointed. Errors are joined, not fatal — a
// failed handoff leaves the state parked on the source (sequences
// intact), where a later rebalance or its own flush drains it.
func (el *elasticState) applyMoves(ctx context.Context, district string, moves []shard.Move) error {
	var errs []error
	for _, mv := range moves {
		if mv.From == "" || mv.From == mv.To {
			continue
		}
		src, ok := el.s.Fog1(mv.From)
		if ok {
			// Route before migrating: ingest arriving mid-handoff
			// forwards to the new owner instead of re-filling the
			// buffers being moved.
			src.SetRoute(mv.TypeName, mv.To)
			if err := src.MigrateOut(ctx, mv.TypeName, mv.To); err != nil {
				errs = append(errs, err)
			}
		}
		// Repoint stale forwarding left over from earlier handoffs:
		// a sibling that migrated this type to mv.From would bounce
		// its forwards off a node that no longer owns (or no longer
		// exists for) the type.
		for _, sib := range el.s.topo.Children(district) {
			if sib == mv.From {
				continue
			}
			if n, ok := el.s.Fog1(sib); ok && n.Route(mv.TypeName) == mv.From {
				if sib == mv.To {
					n.ClearRoute(mv.TypeName)
				} else {
					n.SetRoute(mv.TypeName, mv.To)
				}
			}
		}
	}
	return errors.Join(errs...)
}

// OwnerOf resolves the current ring owner of a sensor type within a
// district (fog2 ID). ok is false when elastic ownership is off, the
// district is unknown, or its ring is empty.
func (s *System) OwnerOf(district, typ string) (string, bool) {
	if s.elastic == nil {
		return "", false
	}
	s.elastic.mu.RLock()
	ring := s.elastic.rings[district]
	s.elastic.mu.RUnlock()
	if ring == nil {
		return "", false
	}
	return ring.Owner(typ)
}

// ElasticBatchOwner resolves the fog1 node that should serve a sealed
// edge batch addressed at fog1ID — the type's ring owner among the
// district siblings. Gateways that dispatch wire messages to node
// handlers directly (bypassing IngestAt) use it to keep elastic
// routing engaged; it returns fog1ID unchanged when elastic ownership
// is off, the node is unknown, or the payload is not a batch envelope
// (the addressed node then reports the decode error itself).
func (s *System) ElasticBatchOwner(fog1ID string, payload []byte) string {
	if s.elastic == nil {
		return fog1ID
	}
	b, _, err := protocol.DecodeBatchPayload(payload)
	if err != nil {
		return fog1ID
	}
	if owner, ok := s.elastic.routeIngest(fog1ID, b.TypeName); ok {
		return owner
	}
	return fog1ID
}

// AddFog1Node grows a district by one fog layer-1 node at runtime:
// a fresh section ID is minted, the node joins the topology, the
// network and the district's ownership ring, and every sensor type
// the ring reassigns to it is live-migrated from its old owner. The
// new node's ID is returned. Requires Options.ElasticOwnership.
func (s *System) AddFog1Node(ctx context.Context, district string) (string, error) {
	if s.elastic == nil {
		return "", fmt.Errorf("core: scale-out: elastic ownership is off")
	}
	el := s.elastic
	el.scaleMu.Lock()
	defer el.scaleMu.Unlock()

	parent, ok := s.topo.Node(district)
	if !ok || parent.Layer != topology.LayerFog2 {
		return "", fmt.Errorf("core: scale-out: %q is not a district", district)
	}

	el.mu.Lock()
	sec := el.nextSection[district]
	if sec == 0 {
		sec = 1
	}
	el.nextSection[district] = sec + 1
	el.mu.Unlock()
	id := fmt.Sprintf("fog1/%s-s%02d", strings.TrimPrefix(district, "fog2/"), sec)

	spec := topology.NodeSpec{
		ID:       id,
		Layer:    topology.LayerFog1,
		Parent:   district,
		Name:     fmt.Sprintf("%s s%02d", parent.Name, sec),
		Centroid: parent.Centroid,
	}
	if err := s.topo.AddNode(spec); err != nil {
		return "", fmt.Errorf("core: scale-out: %w", err)
	}
	n, err := s.buildFog(spec)
	if err != nil {
		_ = s.topo.RemoveNode(id)
		return "", fmt.Errorf("core: scale-out %s: %w", id, err)
	}
	s.net.Register(id, n)
	s.net.SetLink(id, district, transport.MetroLink)
	s.net.SetLink(district, id, transport.MetroLink)
	s.net.SetLink(id, CloudID, transport.WANLink)
	s.net.SetLink(CloudID, id, transport.WANLink)
	for _, sib := range s.topo.Neighbors(id) {
		s.net.SetLink(id, sib, transport.MetroLink)
		s.net.SetLink(sib, id, transport.MetroLink)
	}
	s.nodeMu.Lock()
	s.fog1[id] = n
	s.fog1IDs = append(s.fog1IDs, id)
	sort.Strings(s.fog1IDs)
	s.nodeMu.Unlock()

	// Ring join: only the types whose owner flips to the new node
	// move; everything else stays put (the consistent-hash property
	// the chaos harness asserts as bounded rebalance traffic).
	el.mu.RLock()
	ring := el.rings[district]
	el.mu.RUnlock()
	types := el.seenTypes(district)
	before := ring.Assign(types)
	ring.Add(id)
	moves := shard.Diff(before, ring.Assign(types))
	if err := el.applyMoves(ctx, district, moves); err != nil {
		return id, fmt.Errorf("core: scale-out %s: rebalance: %w", id, err)
	}
	return id, nil
}

// RemoveFog1Node shrinks a district by one fog layer-1 node at
// runtime: the node leaves the ownership ring, every type it owned is
// live-migrated to its reassigned sibling, its remaining buffers are
// drained upward, and only then does it close and leave the topology
// and the network. A node whose state cannot be fully evacuated (its
// parent and every migration target unreachable) is left in place
// with an error — scale-in never sheds data. Requires
// Options.ElasticOwnership.
func (s *System) RemoveFog1Node(ctx context.Context, id string) error {
	if s.elastic == nil {
		return fmt.Errorf("core: scale-in: elastic ownership is off")
	}
	el := s.elastic
	el.scaleMu.Lock()
	defer el.scaleMu.Unlock()

	spec, ok := s.topo.Node(id)
	if !ok || spec.Layer != topology.LayerFog1 {
		return fmt.Errorf("core: scale-in: %q is not a fog1 node", id)
	}
	n, ok := s.Fog1(id)
	if !ok {
		return fmt.Errorf("core: scale-in: unknown fog1 node %q", id)
	}
	district := spec.Parent
	el.mu.RLock()
	ring := el.rings[district]
	el.mu.RUnlock()
	if ring.Len() <= 1 {
		return fmt.Errorf("core: scale-in: %s is the last node of %s", id, district)
	}

	// Leave the ring first so concurrent ingest routes to the
	// survivors, then migrate everything the departing node owned.
	types := el.seenTypes(district)
	before := ring.Assign(types)
	ring.Remove(id)
	moves := shard.Diff(before, ring.Assign(types))
	migErr := el.applyMoves(ctx, district, moves)

	// Drain whatever remains (types never routed through the ring,
	// state reinstalled by failed handoffs) upward through the normal
	// delivery path before the node disappears.
	flushErr := n.Flush(ctx)
	if left := n.PendingBatches(); left > 0 {
		return errors.Join(
			fmt.Errorf("core: scale-in %s: %d batches still pending, refusing to drop them", id, left),
			migErr, flushErr)
	}

	if err := n.Close(ctx); err != nil {
		return fmt.Errorf("core: scale-in %s: close: %w", id, err)
	}
	s.net.Deregister(id)
	s.nodeMu.Lock()
	delete(s.fog1, id)
	for i, cur := range s.fog1IDs {
		if cur == id {
			s.fog1IDs = append(s.fog1IDs[:i], s.fog1IDs[i+1:]...)
			break
		}
	}
	s.nodeMu.Unlock()
	if err := s.topo.RemoveNode(id); err != nil {
		return fmt.Errorf("core: scale-in %s: %w", id, err)
	}
	return migErr
}
