package model

import (
	"fmt"
	"time"
)

// GeoPoint is a WGS-84 coordinate used by the data-description phase
// for location tagging.
type GeoPoint struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Age classifies data by how long ago it was produced. The paper
// characterizes data "according to its age, ranging from real-time to
// historical data" (§II).
type Age int

const (
	// AgeRealTime is data generated and immediately consumable at fog
	// layer 1, typically by critical low-latency services.
	AgeRealTime Age = iota + 1
	// AgeRecent is data that has been moved to fog layer 2: less
	// recent, but covering a broader area.
	AgeRecent
	// AgeHistorical is archived data read back from the preservation
	// block, typically at the cloud layer.
	AgeHistorical
)

// String implements fmt.Stringer.
func (a Age) String() string {
	switch a {
	case AgeRealTime:
		return "real-time"
	case AgeRecent:
		return "recent"
	case AgeHistorical:
		return "historical"
	default:
		return fmt.Sprintf("age(%d)", int(a))
	}
}

// Reading is a single sensor measurement flowing through the data
// life cycle.
type Reading struct {
	// SensorID uniquely identifies the producing sensor.
	SensorID string `json:"sensorId"`
	// TypeName names the catalog sensor type.
	TypeName string `json:"type"`
	// Category is the Sentilo category (denormalized for routing).
	Category Category `json:"category"`
	// Time is the measurement instant.
	Time time.Time `json:"time"`
	// Value is the measured quantity.
	Value float64 `json:"value"`
	// Unit is the measurement unit ("kWh", "dB", "%", ...).
	Unit string `json:"unit,omitempty"`
	// Location is where the measurement was taken.
	Location GeoPoint `json:"location"`
}

// Key returns the dedup identity of the reading: same sensor and same
// value are what the redundant-data-elimination technique collapses.
func (r Reading) Key() string {
	return r.SensorID + "\x00" + r.TypeName
}

// Validate checks the reading for structural sanity.
func (r Reading) Validate() error {
	switch {
	case r.SensorID == "":
		return fmt.Errorf("reading: empty sensor id")
	case r.TypeName == "":
		return fmt.Errorf("reading %s: empty type", r.SensorID)
	case !r.Category.Valid():
		return fmt.Errorf("reading %s: invalid category %d", r.SensorID, int(r.Category))
	case r.Time.IsZero():
		return fmt.Errorf("reading %s: zero timestamp", r.SensorID)
	case !wireSafe(r.SensorID) || !wireSafe(r.TypeName) || !wireSafe(r.Unit):
		return fmt.Errorf("reading %q: a string field holds ';' or a line break", r.SensorID)
	}
	return nil
}

// wireSafe reports whether s holds none of the bytes the text wire
// delimits with: ';' between fields, line breaks between readings. The
// journal and the upward hops carry batches as that text, so a string
// holding one would be acknowledged and then fail to open, or open
// altered.
func wireSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ';' || c == '\n' || c == '\r' {
			return false
		}
	}
	return true
}

// Batch is a set of readings of one sensor type collected by one fog
// node during one collection interval. Batches are the unit moved
// upward through the hierarchy.
type Batch struct {
	// NodeID is the fog node that collected the readings.
	NodeID string `json:"nodeId"`
	// TypeName and Category mirror the readings' type.
	TypeName string   `json:"type"`
	Category Category `json:"category"`
	// Collected is when the batch was sealed.
	Collected time.Time `json:"collected"`
	// Readings holds the measurements.
	Readings []Reading `json:"readings"`
	// WireBytes is the encoded payload size of the batch if already
	// known (set by the acquisition pipeline after encoding); zero
	// means "not yet encoded".
	WireBytes int64 `json:"wireBytes,omitempty"`
}

// Len returns the number of readings in the batch.
func (b *Batch) Len() int { return len(b.Readings) }

// Clone deep-copies the batch so pipeline stages can mutate it without
// aliasing the caller's slice (copy-at-boundary).
func (b *Batch) Clone() *Batch {
	cp := *b
	cp.Readings = make([]Reading, len(b.Readings))
	copy(cp.Readings, b.Readings)
	return &cp
}

// Validate checks the batch and every contained reading.
func (b *Batch) Validate() error {
	if b.NodeID == "" {
		return fmt.Errorf("batch: empty node id")
	}
	if b.TypeName == "" {
		return fmt.Errorf("batch from %s: empty type", b.NodeID)
	}
	if !wireSafe(b.NodeID) || !wireSafe(b.TypeName) {
		return fmt.Errorf("batch from %q: its node id or type holds ';' or a line break", b.NodeID)
	}
	for i := range b.Readings {
		if err := b.Readings[i].Validate(); err != nil {
			return fmt.Errorf("batch from %s: reading %d: %w", b.NodeID, i, err)
		}
		if b.Readings[i].TypeName != b.TypeName {
			return fmt.Errorf("batch from %s: reading %d type %q != batch type %q",
				b.NodeID, i, b.Readings[i].TypeName, b.TypeName)
		}
	}
	return nil
}
