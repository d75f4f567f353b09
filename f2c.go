package f2c

import (
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/placement"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

// Core system types.
type (
	// System is a fully wired F2C deployment.
	System = core.System
	// Options configures NewSystem.
	Options = core.Options
	// DayConfig parameterizes a day-scale simulation.
	DayConfig = core.DayConfig
	// DayResult reports a day-scale simulation.
	DayResult = core.DayResult
)

// Data model types.
type (
	// Reading is one sensor measurement.
	Reading = model.Reading
	// Batch is a set of readings moved through the hierarchy.
	Batch = model.Batch
	// SensorType describes a catalog sensor type.
	SensorType = model.SensorType
	// Category is a Sentilo service category.
	Category = model.Category
	// GeoPoint is a WGS-84 coordinate.
	GeoPoint = model.GeoPoint
)

// Categories.
const (
	CategoryEnergy  = model.CategoryEnergy
	CategoryNoise   = model.CategoryNoise
	CategoryGarbage = model.CategoryGarbage
	CategoryParking = model.CategoryParking
	CategoryUrban   = model.CategoryUrban
)

// Topology types.
type (
	// Topology is the F2C hierarchy.
	Topology = topology.Topology
	// District is a topology construction input.
	District = topology.District
	// NodeSpec describes one hierarchy node.
	NodeSpec = topology.NodeSpec
)

// Compression codecs for upward transfers.
const (
	CodecNone  = aggregate.CodecNone
	CodecFlate = aggregate.CodecFlate
	CodecGzip  = aggregate.CodecGzip
	CodecZip   = aggregate.CodecZip
)

// Placement types (paper §IV.C).
type (
	// ServiceSpec describes a service to place.
	ServiceSpec = placement.ServiceSpec
	// PlacementDecision is the planner's output.
	PlacementDecision = placement.Decision
)

// Compute classes for service placement.
const (
	ComputeLight  = placement.ComputeLight
	ComputeMedium = placement.ComputeMedium
	ComputeHeavy  = placement.ComputeHeavy
)

// Aggregation types (decomposable summaries and mergeable sketches).
type (
	// Summary is a mergeable count/sum/min/max aggregate.
	Summary = aggregate.Summary
	// CountMin is a mergeable frequency sketch.
	CountMin = aggregate.CountMin
	// KMV is a mergeable distinct-count sketch.
	KMV = aggregate.KMV
)

// Continuous-query types (standing windowed analytics at the fog
// tier; alerts propagate upward with at-least-once delivery and
// instance-level dedup at the cloud).
type (
	// Subscription is a standing continuous query over a sensor type.
	Subscription = cq.Subscription
	// Alert is one fired instance as archived at the cloud.
	Alert = protocol.Alert
	// AlertPush is a batch of fired alerts under one delivery
	// identity (see Options.AlertObserver).
	AlertPush = protocol.AlertPush
)

// Subscription kinds and threshold predicates.
const (
	SubWindow    = cq.KindWindow
	SubThreshold = cq.KindThreshold
	PredAbove    = cq.PredAbove
	PredBelow    = cq.PredBelow
)

// Fired-alert kinds as archived at the cloud.
const (
	AlertKindWindow    = protocol.AlertKindWindow
	AlertKindThreshold = protocol.AlertKindThreshold
)

// NewSystem builds and wires a full F2C hierarchy.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// NewCountMin builds a frequency sketch with the given dimensions.
func NewCountMin(rows, cols int) (*CountMin, error) { return aggregate.NewCountMin(rows, cols) }

// NewKMV builds a distinct-count sketch keeping the k smallest hashes.
func NewKMV(k int) (*KMV, error) { return aggregate.NewKMV(k) }

// Barcelona returns the paper's Fig. 6 topology: 73 fog layer-1
// nodes, 10 fog layer-2 nodes, one cloud.
func Barcelona() *Topology { return topology.Barcelona() }

// NewTopology builds a custom city hierarchy.
func NewTopology(city string, districts []District) (*Topology, error) {
	return topology.New(city, districts)
}

// Catalog returns the Table I Sentilo sensor catalog (21 types,
// 1,005,019 sensors).
func Catalog() []SensorType { return model.Catalog() }

// Categories returns the five Sentilo categories in Table I order.
func Categories() []Category { return model.Categories() }

// GB converts bytes to the paper's decimal gigabytes (1e9 bytes).
func GB(bytes int64) float64 { return float64(bytes) / 1e9 }

// NewVirtualClock returns a manually advanced clock for simulations.
func NewVirtualClock(epoch time.Time) *sim.VirtualClock { return sim.NewVirtualClock(epoch) }

// NewTrafficMatrix returns a per-hop traffic accounting matrix.
func NewTrafficMatrix() *metrics.TrafficMatrix { return metrics.NewTrafficMatrix() }
