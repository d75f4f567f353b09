// Package config defines the JSON deployment specification consumed
// by the command-line tools: a whole city (districts/sections), the
// aggregation settings, flush periods and retention windows, in one
// reviewable document.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/sched"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

// Per-tier retention presets (paper §IV: fog layer 1 holds hours of
// temporal data, fog layer 2 days of recent history, the cloud years
// of preserved archive). Deployments use them by default.
const (
	PresetFog1RetentionSeconds  = 60 * 60
	PresetFog2RetentionSeconds  = 24 * 60 * 60
	PresetCloudRetentionSeconds = 5 * 365 * 24 * 60 * 60
)

// DistrictSpec is one district of the deployment.
type DistrictSpec struct {
	Name     string  `json:"name"`
	Sections int     `json:"sections"`
	Lat      float64 `json:"lat,omitempty"`
	Lon      float64 `json:"lon,omitempty"`
}

// Deployment is the city-wide configuration document.
type Deployment struct {
	City      string         `json:"city"`
	Districts []DistrictSpec `json:"districts"`
	// Codec names the upward compression: none|flate|gzip|zip.
	Codec string `json:"codec"`
	// Dedup and Quality toggle the fog layer-1 acquisition phases.
	Dedup   bool `json:"dedup"`
	Quality bool `json:"quality"`
	// Flush periods and retention windows, in seconds (JSON carries
	// no duration type; the unit is in the name per convention).
	Fog1FlushSeconds     int `json:"fog1FlushSeconds"`
	Fog2FlushSeconds     int `json:"fog2FlushSeconds"`
	Fog1RetentionSeconds int `json:"fog1RetentionSeconds"`
	Fog2RetentionSeconds int `json:"fog2RetentionSeconds"`
	// Fog1FlushByCategorySeconds overrides the layer-1 upward
	// frequency for specific categories (keyed by category name) —
	// the paper's per-business-model update policy.
	Fog1FlushByCategorySeconds map[string]int `json:"fog1FlushByCategorySeconds,omitempty"`
	// DataDir makes the deployment durable: every node journals its
	// delivery state (the cloud its archive) to a write-ahead log with
	// snapshots under DataDir/<node id> and keeps its temporal store in
	// the tiered segment engine under DataDir/<node id>/store (history
	// in mmap'd segment files, resident memory near the memtable cap),
	// recovering both on restart. Empty keeps the deployment in-memory.
	// The daemons' -data-dir flag overrides it: a path belongs to the
	// process.
	DataDir string `json:"dataDir,omitempty"`
	// MemtableBytes caps each segment store's in-RAM memtable before
	// it flushes to a segment file (0 = engine default).
	MemtableBytes int64 `json:"memtableBytes,omitempty"`
	// CloudRetentionSeconds bounds the cloud archive's age (0 keeps
	// it forever — the pre-preset behavior).
	CloudRetentionSeconds int64 `json:"cloudRetentionSeconds,omitempty"`
	// IngestRateBytes rate-limits the ingest class of every node's
	// admission scheduler (always on: per-class weighted-fair
	// admission gates each handler path) to this many payload bytes
	// per second (0 = unlimited).
	IngestRateBytes int64 `json:"ingestRateBytes,omitempty"`
	// MaxPendingReadings bounds each fog node's per-type upward buffer
	// in readings during parent outages (0 = unbounded).
	MaxPendingReadings int `json:"maxPendingReadings,omitempty"`
	// DegradeToSummary folds buffer-trimmed readings into window
	// summaries forwarded upward instead of dropping them (needs
	// maxPendingReadings to bite).
	DegradeToSummary bool `json:"degradeToSummary,omitempty"`
	// ElasticOwnership routes each sensor type's edge ingest to its
	// consistent-hash ring owner among the district's sections and
	// enables runtime scale of fog layer 1 (AddFog1Node /
	// RemoveFog1Node with live shard migration between siblings).
	ElasticOwnership bool `json:"elasticOwnership,omitempty"`
	// Subscriptions are standing continuous queries registered at
	// boot: windowed aggregates or threshold predicates evaluated
	// incrementally in the fog layer-1 ingest path, with fired alerts
	// pushed upward to the cloud (no polling). Under elasticOwnership
	// each subscription lands on its sensor type's ring owner;
	// otherwise every section evaluates it.
	Subscriptions []SubscriptionSpec `json:"subscriptions,omitempty"`
}

// SubscriptionSpec is one standing continuous query of the deployment
// document. Durations are in seconds like every other field; Kind is
// "window" or "threshold", Predicate "gt" or "lt".
type SubscriptionSpec struct {
	ID            string  `json:"id"`
	Type          string  `json:"type"`
	Kind          string  `json:"kind"`
	WindowSeconds int     `json:"windowSeconds"`
	SlideSeconds  int     `json:"slideSeconds,omitempty"`
	Predicate     string  `json:"predicate,omitempty"`
	Threshold     float64 `json:"threshold,omitempty"`
}

// Subscription converts the spec into the cq engine's form.
func (s SubscriptionSpec) Subscription() cq.Subscription {
	return cq.Subscription{
		ID:        s.ID,
		TypeName:  s.Type,
		Kind:      cq.Kind(s.Kind),
		Window:    time.Duration(s.WindowSeconds) * time.Second,
		Slide:     time.Duration(s.SlideSeconds) * time.Second,
		Predicate: cq.Predicate(s.Predicate),
		Threshold: s.Threshold,
	}
}

// StandingQueries returns the deployment's boot-time subscriptions in
// the cq engine's form.
func (d Deployment) StandingQueries() []cq.Subscription {
	subs := make([]cq.Subscription, 0, len(d.Subscriptions))
	for _, s := range d.Subscriptions {
		subs = append(subs, s.Subscription())
	}
	return subs
}

// Barcelona returns the deployment matching the paper's use case.
func Barcelona() Deployment {
	districts := make([]DistrictSpec, 0, 10)
	for _, d := range topology.BarcelonaDistricts() {
		districts = append(districts, DistrictSpec{
			Name: d.Name, Sections: d.Sections, Lat: d.Centroid.Lat, Lon: d.Centroid.Lon,
		})
	}
	return Deployment{
		City:                  "Barcelona",
		Districts:             districts,
		Codec:                 "zip",
		Dedup:                 true,
		Quality:               true,
		Fog1FlushSeconds:      15 * 60,
		Fog2FlushSeconds:      60 * 60,
		Fog1RetentionSeconds:  PresetFog1RetentionSeconds,
		Fog2RetentionSeconds:  PresetFog2RetentionSeconds,
		CloudRetentionSeconds: PresetCloudRetentionSeconds,
	}
}

// Validate checks the document.
func (d Deployment) Validate() error {
	if d.City == "" {
		return fmt.Errorf("config: empty city")
	}
	if len(d.Districts) == 0 {
		return fmt.Errorf("config: no districts")
	}
	for i, ds := range d.Districts {
		if ds.Name == "" {
			return fmt.Errorf("config: district %d has no name", i)
		}
		if ds.Sections <= 0 {
			return fmt.Errorf("config: district %q has %d sections", ds.Name, ds.Sections)
		}
	}
	if _, err := d.codec(); err != nil {
		return err
	}
	for name, v := range map[string]int{
		"fog1FlushSeconds":     d.Fog1FlushSeconds,
		"fog2FlushSeconds":     d.Fog2FlushSeconds,
		"fog1RetentionSeconds": d.Fog1RetentionSeconds,
		"fog2RetentionSeconds": d.Fog2RetentionSeconds,
	} {
		if v < 0 {
			return fmt.Errorf("config: negative %s", name)
		}
	}
	for catName, v := range d.Fog1FlushByCategorySeconds {
		if _, err := model.ParseCategory(catName); err != nil {
			return fmt.Errorf("config: fog1FlushByCategorySeconds: %w", err)
		}
		if v <= 0 {
			return fmt.Errorf("config: fog1FlushByCategorySeconds[%s] must be positive", catName)
		}
	}
	if d.MemtableBytes < 0 {
		return fmt.Errorf("config: negative memtableBytes")
	}
	if d.CloudRetentionSeconds < 0 {
		return fmt.Errorf("config: negative cloudRetentionSeconds")
	}
	if d.IngestRateBytes < 0 {
		return fmt.Errorf("config: negative ingestRateBytes")
	}
	if d.MaxPendingReadings < 0 {
		return fmt.Errorf("config: negative maxPendingReadings")
	}
	for i := range d.Subscriptions {
		sub := d.Subscriptions[i].Subscription()
		if err := sub.Validate(); err != nil {
			return fmt.Errorf("config: subscriptions[%d]: %w", i, err)
		}
	}
	return nil
}

func (d Deployment) codec() (aggregate.Codec, error) {
	if d.Codec == "" {
		return aggregate.CodecZip, nil
	}
	for _, c := range []aggregate.Codec{aggregate.CodecNone, aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		if c.String() == d.Codec {
			return c, nil
		}
	}
	return 0, fmt.Errorf("config: unknown codec %q", d.Codec)
}

// Topology builds the hierarchy the document describes.
func (d Deployment) Topology() (*topology.Topology, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	districts := make([]topology.District, 0, len(d.Districts))
	for _, ds := range d.Districts {
		districts = append(districts, topology.District{
			Name:     ds.Name,
			Sections: ds.Sections,
			Centroid: model.GeoPoint{Lat: ds.Lat, Lon: ds.Lon},
		})
	}
	return topology.New(d.City, districts)
}

// Options assembles core.Options for the deployment on the given
// clock. A document-built node is the production profile: admission
// always gates its handlers, and a data dir always means journal and
// segment store together — the configuration the benchmark's durable
// workloads measure. Running either half alone is a library choice
// (core.Options), not a deployment one.
func (d Deployment) Options(clock sim.Clock) (core.Options, error) {
	topo, err := d.Topology()
	if err != nil {
		return core.Options{}, err
	}
	codec, err := d.codec()
	if err != nil {
		return core.Options{}, err
	}
	var byCat map[model.Category]time.Duration
	if len(d.Fog1FlushByCategorySeconds) > 0 {
		byCat = make(map[model.Category]time.Duration, len(d.Fog1FlushByCategorySeconds))
		for catName, secs := range d.Fog1FlushByCategorySeconds {
			cat, err := model.ParseCategory(catName)
			if err != nil {
				return core.Options{}, fmt.Errorf("config: %w", err)
			}
			byCat[cat] = time.Duration(secs) * time.Second
		}
	}
	overload := OverloadOptions(d.IngestRateBytes)
	return core.Options{
		Topology:            topo,
		Clock:               clock,
		City:                d.City,
		Codec:               codec,
		Dedup:               d.Dedup,
		Quality:             d.Quality,
		Fog1FlushInterval:   time.Duration(d.Fog1FlushSeconds) * time.Second,
		Fog2FlushInterval:   time.Duration(d.Fog2FlushSeconds) * time.Second,
		Fog1Retention:       time.Duration(d.Fog1RetentionSeconds) * time.Second,
		Fog2Retention:       time.Duration(d.Fog2RetentionSeconds) * time.Second,
		Fog1FlushByCategory: byCat,
		DataDir:             d.DataDir,
		MemtableBytes:       d.MemtableBytes,
		CloudRetention:      time.Duration(d.CloudRetentionSeconds) * time.Second,
		Overload:            &overload,
		MaxPendingReadings:  d.MaxPendingReadings,
		DegradeToSummary:    d.DegradeToSummary,
		ElasticOwnership:    d.ElasticOwnership,
	}, nil
}

// RefuseIgnored refuses the fields host would run without, so a
// document never declares a profile the node silently does not have.
// Only citysim's day simulation flushes layer 1 per category; every
// other host runs one flush period per layer. Elastic ownership needs
// core.System, which only whole-city hosts run.
func (d Deployment) RefuseIgnored(host string, wholeCity bool) error {
	if len(d.Fog1FlushByCategorySeconds) > 0 {
		return fmt.Errorf("config: %s ignores fog1FlushByCategorySeconds (only citysim's day simulation honours it): drop the field", host)
	}
	if d.ElasticOwnership && !wholeCity {
		return fmt.Errorf("config: %s ignores elasticOwnership (only a whole-city host honours it: f2cd -all-in-one or citysim's day simulation): drop the field", host)
	}
	return nil
}

// OverloadOptions builds a deployment's admission-scheduler options:
// the default class weights, with the ingest class optionally
// token-bucket limited to rateBytes payload bytes per second
// (0 = unlimited).
func OverloadOptions(rateBytes int64) sched.Options {
	so := sched.DefaultOptions()
	if rateBytes > 0 {
		c := so.Classes["ingest"]
		c.Rate = float64(rateBytes)
		c.Burst = float64(rateBytes)
		so.Classes["ingest"] = c
	}
	return so
}

// Parse decodes and validates a JSON document. Documents written while
// an RTT-driven flush policy existed may carry "adaptiveFlush": false
// still loads; true is refused here, since every node now flushes at
// its configured period and would silently run another profile.
func Parse(data []byte) (Deployment, error) {
	var doc struct {
		Deployment
		RetiredFlushPolicy bool `json:"adaptiveFlush"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return Deployment{}, fmt.Errorf("config: parse: %w", err)
	}
	if doc.RetiredFlushPolicy {
		return Deployment{}, errors.New("config: adaptiveFlush is retired: every fog node flushes at its fog1FlushSeconds/fog2FlushSeconds period and seals each type's buffer whole (drop the field)")
	}
	if err := doc.Validate(); err != nil {
		return Deployment{}, err
	}
	return doc.Deployment, nil
}

// Load reads a deployment from a file.
func Load(path string) (Deployment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Deployment{}, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Save writes the deployment as indented JSON.
func (d Deployment) Save(path string) error {
	if err := d.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("config: save: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("config: save: %w", err)
	}
	return nil
}
