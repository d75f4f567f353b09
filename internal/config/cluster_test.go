package config

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestClusterRoundTrip(t *testing.T) {
	c := Cluster{
		Nodes: map[string]string{
			"cloud":        "127.0.0.1:9000",
			"fog2/d01":     "127.0.0.1:9001",
			"fog1/d01-s01": "127.0.0.1:9002",
		},
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadCluster(path)
	if err != nil {
		t.Fatalf("LoadCluster: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("round-trip mismatch: %+v != %+v", got, c)
	}
	addr, err := got.Addr("fog2/d01")
	if err != nil || addr != "127.0.0.1:9001" {
		t.Errorf("Addr = %q, %v", addr, err)
	}
	if _, err := got.Addr("fog2/d99"); err == nil {
		t.Error("Addr of unknown node succeeded")
	}
	want := []string{"cloud", "fog1/d01-s01", "fog2/d01"}
	if ids := got.NodeIDs(); !reflect.DeepEqual(ids, want) {
		t.Errorf("NodeIDs = %v, want %v", ids, want)
	}
}

func TestClusterValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Cluster
	}{
		{"no nodes", Cluster{}},
		{"empty address", Cluster{Nodes: map[string]string{"cloud": ""}}},
		{"empty id", Cluster{Nodes: map[string]string{"": "x"}}},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.c)
		}
	}
	if _, err := ParseCluster([]byte("{")); err == nil {
		t.Error("ParseCluster accepted malformed JSON")
	}
}

// TestClusterTransportField: the document has no wire choice. A
// document naming the retired HTTP plane is refused at parse, naming
// it; "tcp" (what citysim -live wrote while the field existed) and an
// absent field both load.
func TestClusterTransportField(t *testing.T) {
	nodes := `"nodes": {"cloud": "127.0.0.1:9000"}`
	for _, doc := range []string{`{` + nodes + `}`, `{"transport": "tcp", ` + nodes + `}`} {
		c, err := ParseCluster([]byte(doc))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		if addr, _ := c.Addr("cloud"); addr != "127.0.0.1:9000" {
			t.Errorf("%s: cloud at %q", doc, addr)
		}
	}
	for _, transport := range []string{"http", "udp"} {
		_, err := ParseCluster([]byte(`{"transport": "` + transport + `", ` + nodes + `}`))
		if err == nil {
			t.Fatalf("a %q cluster document parsed", transport)
		}
		if !strings.Contains(err.Error(), "HTTP message plane is retired") || !strings.Contains(err.Error(), transport) {
			t.Errorf("%q refused with %q, want the retired HTTP plane named", transport, err)
		}
	}
}
