package config

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Cluster maps the node ids of a multi-process deployment onto the
// tcpnet addresses ("host:port") they listen on, so every daemon, load
// driver and control tool reads the same one document instead of
// repeating -parent-addr wiring per process. citysim's live mode writes
// one for the hierarchy it hosts.
type Cluster struct {
	// Nodes maps node id (e.g. "fog1/d01-s01", "cloud") to the
	// address the node listens on.
	Nodes map[string]string `json:"nodes"`
}

// Validate checks the document.
func (c Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("config: cluster has no nodes")
	}
	for id, addr := range c.Nodes {
		if id == "" {
			return fmt.Errorf("config: cluster node with empty id")
		}
		if addr == "" {
			return fmt.Errorf("config: cluster node %q has empty address", id)
		}
	}
	return nil
}

// Addr resolves a node id to its address.
func (c Cluster) Addr(id string) (string, error) {
	addr, ok := c.Nodes[id]
	if !ok {
		return "", fmt.Errorf("config: cluster has no node %q", id)
	}
	return addr, nil
}

// NodeIDs returns the sorted node ids.
func (c Cluster) NodeIDs() []string {
	ids := make([]string, 0, len(c.Nodes))
	for id := range c.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ParseCluster decodes and validates a JSON document. Documents written
// while a choice of wire existed carry a "transport" field: "tcp" still
// loads; "http" named the retired HTTP message plane and, like any other
// value, is refused here rather than at the first dial.
func ParseCluster(data []byte) (Cluster, error) {
	var doc struct {
		Cluster
		Transport string `json:"transport"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return Cluster{}, fmt.Errorf("config: parse cluster: %w", err)
	}
	if doc.Transport != "" && doc.Transport != "tcp" {
		return Cluster{}, fmt.Errorf("config: cluster transport %q is not served: the HTTP message plane is retired and nodes speak tcpnet only (drop the field, list host:port addresses)", doc.Transport)
	}
	if err := doc.Validate(); err != nil {
		return Cluster{}, err
	}
	return doc.Cluster, nil
}

// LoadCluster reads a cluster document from a file.
func LoadCluster(path string) (Cluster, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Cluster{}, fmt.Errorf("config: %w", err)
	}
	return ParseCluster(data)
}

// Save writes the cluster as indented JSON.
func (c Cluster) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: save cluster: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("config: save cluster: %w", err)
	}
	return nil
}
