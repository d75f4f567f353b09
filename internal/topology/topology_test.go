package topology

import (
	"fmt"
	"strings"
	"testing"

	"f2c/internal/model"
)

func TestBarcelonaTopology(t *testing.T) {
	bcn := Barcelona()
	fog1, fog2, cloud := bcn.Counts()
	if fog1 != 73 {
		t.Errorf("fog1 nodes = %d, want 73 (paper Fig. 6: one per section)", fog1)
	}
	if fog2 != 10 {
		t.Errorf("fog2 nodes = %d, want 10 (one per district)", fog2)
	}
	if cloud != 1 {
		t.Errorf("cloud nodes = %d, want 1", cloud)
	}
	// Every district's section count sums to 73.
	total := 0
	for _, d := range BarcelonaDistricts() {
		total += d.Sections
	}
	if total != 73 {
		t.Errorf("district sections sum = %d, want 73", total)
	}
}

func TestTopologyStructure(t *testing.T) {
	bcn := Barcelona()
	// Each fog1 node's parent is a fog2 node whose parent is cloud.
	for _, f1 := range bcn.Fog1Nodes() {
		p, ok := bcn.Parent(f1.ID)
		if !ok || p.Layer != LayerFog2 {
			t.Fatalf("%s parent = %+v ok=%v", f1.ID, p, ok)
		}
		pp, ok := bcn.Parent(p.ID)
		if !ok || pp.Layer != LayerCloud {
			t.Fatalf("%s grandparent = %+v ok=%v", f1.ID, pp, ok)
		}
	}
	if _, ok := bcn.Parent("cloud"); ok {
		t.Error("cloud must have no parent")
	}
	if _, ok := bcn.Parent("ghost"); ok {
		t.Error("unknown node must have no parent")
	}
	// Children of cloud are the 10 fog2 nodes.
	if kids := bcn.Children("cloud"); len(kids) != 10 {
		t.Errorf("cloud children = %d, want 10", len(kids))
	}
	// Children counts at fog2 match the district preset.
	for i, d := range BarcelonaDistricts() {
		id := bcn.Fog2Nodes()[i].ID
		if kids := bcn.Children(id); len(kids) != d.Sections {
			t.Errorf("%s (%s) children = %d, want %d", id, d.Name, len(kids), d.Sections)
		}
	}
}

func TestTopologyNeighbors(t *testing.T) {
	bcn := Barcelona()
	// Les Corts has 3 sections: each has 2 neighbors.
	var lesCorts []string
	for _, f1 := range bcn.Fog1Nodes() {
		if strings.Contains(f1.Name, "Les Corts") {
			lesCorts = append(lesCorts, f1.ID)
		}
	}
	if len(lesCorts) != 3 {
		t.Fatalf("Les Corts sections = %d, want 3", len(lesCorts))
	}
	nbrs := bcn.Neighbors(lesCorts[0])
	if len(nbrs) != 2 {
		t.Fatalf("neighbors = %v, want 2", nbrs)
	}
	for _, n := range nbrs {
		if n == lesCorts[0] {
			t.Error("node must not be its own neighbor")
		}
	}
	if bcn.Neighbors("cloud") != nil {
		t.Error("cloud has no fog1 neighbors")
	}
	if bcn.Neighbors("ghost") != nil {
		t.Error("unknown node has no neighbors")
	}
}

func TestTopologyPathToCloud(t *testing.T) {
	bcn := Barcelona()
	f1 := bcn.Fog1Nodes()[0]
	path, err := bcn.PathToCloud(f1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != f1.ID || path[2] != "cloud" {
		t.Errorf("path = %v", path)
	}
	if _, err := bcn.PathToCloud("ghost"); err == nil {
		t.Error("expected error for unknown node")
	}
	path, err = bcn.PathToCloud("cloud")
	if err != nil || len(path) != 1 {
		t.Errorf("cloud path = %v, err = %v", path, err)
	}
}

func TestTopologyValidationErrors(t *testing.T) {
	cases := []struct {
		name      string
		city      string
		districts []District
	}{
		{"empty city", "", []District{{Name: "a", Sections: 1}}},
		{"no districts", "x", nil},
		{"unnamed district", "x", []District{{Sections: 1}}},
		{"zero sections", "x", []District{{Name: "a", Sections: 0}}},
		{"duplicate district", "x", []District{{Name: "a", Sections: 1}, {Name: "a", Sections: 2}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.city, tc.districts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTopologyDescribe(t *testing.T) {
	bcn := Barcelona()
	desc := bcn.Describe()
	for _, want := range []string{"cloud", "Nou Barris", "13 sections", "fog1/d08-s13"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
}

func TestTopologyNodeLookup(t *testing.T) {
	bcn := Barcelona()
	n, ok := bcn.Node("fog2/d01")
	if !ok || n.Name != "Ciutat Vella" {
		t.Errorf("Node = %+v ok=%v", n, ok)
	}
	if _, ok := bcn.Node("nope"); ok {
		t.Error("unknown node lookup must fail")
	}
	// Accessors return copies.
	nodes := bcn.Fog1Nodes()
	nodes[0].ID = "mutated"
	if bcn.Fog1Nodes()[0].ID == "mutated" {
		t.Error("Fog1Nodes aliased internal slice")
	}
}

func TestSectionCentroidsScattered(t *testing.T) {
	bcn := Barcelona()
	seen := make(map[model.GeoPoint]string)
	for _, f1 := range bcn.Fog1Nodes() {
		if prev, dup := seen[f1.Centroid]; dup {
			t.Errorf("%s and %s share centroid %+v", prev, f1.ID, f1.Centroid)
		}
		seen[f1.Centroid] = f1.ID
	}
}

func TestLayerString(t *testing.T) {
	if LayerFog1.String() != "fog1" || LayerFog2.String() != "fog2" || LayerCloud.String() != "cloud" {
		t.Error("unexpected layer strings")
	}
	if Layer(9).String() != "layer(9)" {
		t.Error("unknown layer should render numerically")
	}
}

// PathToCloud returns the upward node-ID path from id to the cloud,
// inclusive of both ends.
func (t *Topology) PathToCloud(id string) ([]string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.byID[id]
	if !ok {
		return nil, fmt.Errorf("topology: unknown node %q", id)
	}
	path := []string{n.ID}
	for n.Parent != "" {
		n = t.byID[n.Parent]
		path = append(path, n.ID)
	}
	return path, nil
}
