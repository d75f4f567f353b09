package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Hop identifies a network segment in the F2C hierarchy. The paper's
// evaluation counts bytes crossing each of these segments.
type Hop int

const (
	// HopEdgeToFog1 is sensor devices -> fog layer 1 (local links).
	HopEdgeToFog1 Hop = iota + 1
	// HopFog1ToFog2 is fog layer 1 -> fog layer 2 (metro links).
	HopFog1ToFog2
	// HopFog2ToCloud is fog layer 2 -> cloud (WAN links).
	HopFog2ToCloud
	// HopEdgeToCloud is the centralized baseline's direct
	// sensor -> cloud path (3G/4G in the paper's Fig. 3 model).
	HopEdgeToCloud
	// HopFog1ToFog1 is neighbor traffic between fog layer-1 nodes
	// (the paper's §IV.C neighbor data-access option).
	HopFog1ToFog1
	// HopDownlink is any layer answering a consumer read (cloud or
	// fog serving a service/application).
	HopDownlink
)

// Hops lists all hops in display order.
func Hops() []Hop {
	return []Hop{
		HopEdgeToFog1, HopFog1ToFog2, HopFog2ToCloud,
		HopEdgeToCloud, HopFog1ToFog1, HopDownlink,
	}
}

// String implements fmt.Stringer.
func (h Hop) String() string {
	switch h {
	case HopEdgeToFog1:
		return "edge->fog1"
	case HopFog1ToFog2:
		return "fog1->fog2"
	case HopFog2ToCloud:
		return "fog2->cloud"
	case HopEdgeToCloud:
		return "edge->cloud"
	case HopFog1ToFog1:
		return "fog1<->fog1"
	case HopDownlink:
		return "downlink"
	default:
		return fmt.Sprintf("hop(%d)", int(h))
	}
}

// TrafficMatrix accumulates bytes and message counts per hop and per
// traffic class (usually the sensor category name). Safe for
// concurrent use.
type TrafficMatrix struct {
	mu    sync.Mutex
	bytes map[Hop]map[string]int64
	msgs  map[Hop]map[string]int64
}

// NewTrafficMatrix creates an empty matrix.
func NewTrafficMatrix() *TrafficMatrix {
	return &TrafficMatrix{
		bytes: make(map[Hop]map[string]int64),
		msgs:  make(map[Hop]map[string]int64),
	}
}

// Record accounts one message of n bytes for class on hop.
func (m *TrafficMatrix) Record(hop Hop, class string, n int64) {
	if n < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bytes[hop] == nil {
		m.bytes[hop] = make(map[string]int64)
		m.msgs[hop] = make(map[string]int64)
	}
	m.bytes[hop][class] += n
	m.msgs[hop][class]++
}

// Bytes returns total bytes recorded for the hop across all classes.
func (m *TrafficMatrix) Bytes(hop Hop) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, n := range m.bytes[hop] {
		total += n
	}
	return total
}

// BytesByClass returns bytes recorded for one class on one hop.
func (m *TrafficMatrix) BytesByClass(hop Hop, class string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes[hop][class]
}

// MessagesByClass returns messages recorded for one class on one hop.
// Kept for tests: core's TestRunDayPerCategoryFlushPolicy reads it.
func (m *TrafficMatrix) MessagesByClass(hop Hop, class string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.msgs[hop][class]
}

// Messages returns total messages recorded for the hop.
func (m *TrafficMatrix) Messages(hop Hop) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, n := range m.msgs[hop] {
		total += n
	}
	return total
}

// Classes returns the sorted set of classes seen on any hop.
func (m *TrafficMatrix) Classes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := make(map[string]struct{})
	for _, byClass := range m.bytes {
		for class := range byClass {
			set[class] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for class := range set {
		out = append(out, class)
	}
	sort.Strings(out)
	return out
}

// Reset clears all recorded traffic.
func (m *TrafficMatrix) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytes = make(map[Hop]map[string]int64)
	m.msgs = make(map[Hop]map[string]int64)
}

// String renders the matrix as a table of hop x class byte counts.
func (m *TrafficMatrix) String() string {
	classes := m.Classes()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %10s", "hop", "bytes", "msgs")
	for _, class := range classes {
		fmt.Fprintf(&b, " %14s", class)
	}
	b.WriteByte('\n')
	for _, hop := range Hops() {
		if m.Messages(hop) == 0 && m.Bytes(hop) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-14s %14d %10d", hop, m.Bytes(hop), m.Messages(hop))
		for _, class := range classes {
			fmt.Fprintf(&b, " %14d", m.BytesByClass(hop, class))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
