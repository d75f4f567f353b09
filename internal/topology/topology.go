// Package topology models the hierarchical F2C layout (paper §III,
// Fig. 4): a cloud layer on top of a variable number of fog layers.
// The paper instantiates it for Barcelona (§V.B, Fig. 6) with one fog
// layer-1 node per city section (73) and one fog layer-2 node per
// district (10); the Barcelona preset reproduces that layout with the
// city's real district structure.
package topology

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"f2c/internal/model"
)

// Layer identifies a level of the F2C hierarchy.
type Layer int

const (
	// LayerFog1 is the lowest fog layer (city sections, ~1 km²).
	LayerFog1 Layer = iota + 1
	// LayerFog2 is the aggregation fog layer (districts).
	LayerFog2
	// LayerCloud is the top layer.
	LayerCloud
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerFog1:
		return "fog1"
	case LayerFog2:
		return "fog2"
	case LayerCloud:
		return "cloud"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// NodeSpec describes one node of the hierarchy.
type NodeSpec struct {
	// ID is the globally unique node identifier ("fog1/d07-s03").
	ID string
	// Layer is the node's hierarchy level.
	Layer Layer
	// Parent is the upward node's ID; empty for the cloud.
	Parent string
	// Name is the human-readable area name ("Horta-Guinardó s03").
	Name string
	// Centroid is the representative coordinate of the covered area.
	Centroid model.GeoPoint
}

// District is the construction input: a named district with a number
// of sections.
type District struct {
	Name     string
	Sections int
	Centroid model.GeoPoint
}

// Topology is a three-layer hierarchy. Construction lays out the
// initial city; AddNode/RemoveNode grow and shrink the fog layers at
// runtime (elastic topology), so all accessors are guarded for
// concurrent use.
type Topology struct {
	mu       sync.RWMutex
	cloud    NodeSpec
	fog2     []NodeSpec
	fog1     []NodeSpec
	byID     map[string]NodeSpec
	children map[string][]string
}

// New builds a three-layer topology from districts. Each district
// becomes a fog layer-2 node; each of its sections a fog layer-1
// node.
func New(city string, districts []District) (*Topology, error) {
	if city == "" {
		return nil, fmt.Errorf("topology: empty city name")
	}
	if len(districts) == 0 {
		return nil, fmt.Errorf("topology: no districts")
	}
	t := &Topology{
		cloud: NodeSpec{
			ID:    "cloud",
			Layer: LayerCloud,
			Name:  city + " cloud",
		},
		byID:     make(map[string]NodeSpec),
		children: make(map[string][]string),
	}
	t.byID[t.cloud.ID] = t.cloud
	seen := make(map[string]struct{}, len(districts))
	for di, d := range districts {
		if d.Name == "" {
			return nil, fmt.Errorf("topology: district %d has no name", di)
		}
		if d.Sections <= 0 {
			return nil, fmt.Errorf("topology: district %q has %d sections", d.Name, d.Sections)
		}
		if _, dup := seen[d.Name]; dup {
			return nil, fmt.Errorf("topology: duplicate district %q", d.Name)
		}
		seen[d.Name] = struct{}{}
		f2 := NodeSpec{
			ID:       fmt.Sprintf("fog2/d%02d", di+1),
			Layer:    LayerFog2,
			Parent:   t.cloud.ID,
			Name:     d.Name,
			Centroid: d.Centroid,
		}
		t.fog2 = append(t.fog2, f2)
		t.byID[f2.ID] = f2
		t.children[t.cloud.ID] = append(t.children[t.cloud.ID], f2.ID)
		for si := 0; si < d.Sections; si++ {
			f1 := NodeSpec{
				ID:     fmt.Sprintf("fog1/d%02d-s%02d", di+1, si+1),
				Layer:  LayerFog1,
				Parent: f2.ID,
				Name:   fmt.Sprintf("%s s%02d", d.Name, si+1),
				Centroid: model.GeoPoint{
					// Scatter sections ~1 km apart around the
					// district centroid, deterministically.
					Lat: d.Centroid.Lat + float64(si%4)*0.009 - 0.013,
					Lon: d.Centroid.Lon + float64(si/4)*0.011 - 0.011,
				},
			}
			t.fog1 = append(t.fog1, f1)
			t.byID[f1.ID] = f1
			t.children[f2.ID] = append(t.children[f2.ID], f1.ID)
		}
	}
	return t, nil
}

// AddNode joins a fog node to the hierarchy at runtime. The spec
// must carry a fresh ID, a fog layer, and an existing parent one
// layer up (fog1 under a fog2 district, fog2 under the cloud).
func (t *Topology) AddNode(spec NodeSpec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if spec.ID == "" {
		return fmt.Errorf("topology: AddNode needs an ID")
	}
	if _, dup := t.byID[spec.ID]; dup {
		return fmt.Errorf("topology: node %q already exists", spec.ID)
	}
	parent, ok := t.byID[spec.Parent]
	if !ok {
		return fmt.Errorf("topology: parent %q of %q does not exist", spec.Parent, spec.ID)
	}
	switch spec.Layer {
	case LayerFog1:
		if parent.Layer != LayerFog2 {
			return fmt.Errorf("topology: fog1 node %q needs a fog2 parent, got %s", spec.ID, parent.Layer)
		}
		t.fog1 = append(t.fog1, spec)
	case LayerFog2:
		if parent.Layer != LayerCloud {
			return fmt.Errorf("topology: fog2 node %q needs the cloud as parent, got %s", spec.ID, parent.Layer)
		}
		t.fog2 = append(t.fog2, spec)
	default:
		return fmt.Errorf("topology: cannot add a %s node at runtime", spec.Layer)
	}
	t.byID[spec.ID] = spec
	t.children[spec.Parent] = append(t.children[spec.Parent], spec.ID)
	return nil
}

// RemoveNode detaches a fog node from the hierarchy at runtime. The
// cloud and nodes that still manage children cannot be removed —
// drain and remove the children first.
func (t *Topology) RemoveNode(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", id)
	}
	if n.Layer == LayerCloud {
		return fmt.Errorf("topology: cannot remove the cloud")
	}
	if len(t.children[id]) > 0 {
		return fmt.Errorf("topology: node %q still manages %d children", id, len(t.children[id]))
	}
	delete(t.byID, id)
	delete(t.children, id)
	kids := t.children[n.Parent]
	for i, kid := range kids {
		if kid == id {
			t.children[n.Parent] = append(kids[:i], kids[i+1:]...)
			break
		}
	}
	drop := func(list []NodeSpec) []NodeSpec {
		for i := range list {
			if list[i].ID == id {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	if n.Layer == LayerFog1 {
		t.fog1 = drop(t.fog1)
	} else {
		t.fog2 = drop(t.fog2)
	}
	return nil
}

// Cloud returns the cloud node.
func (t *Topology) Cloud() NodeSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cloud
}

// Fog2Nodes returns the layer-2 nodes in construction order.
func (t *Topology) Fog2Nodes() []NodeSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]NodeSpec, len(t.fog2))
	copy(out, t.fog2)
	return out
}

// Fog1Nodes returns the layer-1 nodes in construction order.
func (t *Topology) Fog1Nodes() []NodeSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]NodeSpec, len(t.fog1))
	copy(out, t.fog1)
	return out
}

// Node looks up a node by ID.
func (t *Topology) Node(id string) (NodeSpec, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byID[id]
	return n, ok
}

// Parent returns the upward node of id.
func (t *Topology) Parent(id string) (NodeSpec, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byID[id]
	if !ok || n.Parent == "" {
		return NodeSpec{}, false
	}
	return t.byID[n.Parent], true
}

// Children returns the IDs managed by a node, sorted.
func (t *Topology) Children(id string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	kids := t.children[id]
	out := make([]string, len(kids))
	copy(out, kids)
	sort.Strings(out)
	return out
}

// Neighbors returns the sibling fog layer-1 nodes of id (same
// district) — the candidates for the paper's §IV.C neighbor data
// access.
func (t *Topology) Neighbors(id string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byID[id]
	if !ok || n.Layer != LayerFog1 {
		return nil
	}
	var out []string
	for _, sib := range t.children[n.Parent] {
		if sib != id {
			out = append(out, sib)
		}
	}
	sort.Strings(out)
	return out
}

// Counts returns the number of nodes per layer.
func (t *Topology) Counts() (fog1, fog2, cloud int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.fog1), len(t.fog2), 1
}

// Describe renders the hierarchy as an indented tree (the textual
// equivalent of Fig. 6).
func (t *Topology) Describe() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", t.cloud.ID, t.cloud.Name)
	for _, f2 := range t.fog2 {
		fmt.Fprintf(&b, "  %s (%s): %d sections\n", f2.ID, f2.Name, len(t.children[f2.ID]))
		kids := make([]string, len(t.children[f2.ID]))
		copy(kids, t.children[f2.ID])
		sort.Strings(kids)
		for _, kid := range kids {
			f1 := t.byID[kid]
			fmt.Fprintf(&b, "    %s (%s)\n", f1.ID, f1.Name)
		}
	}
	return b.String()
}
