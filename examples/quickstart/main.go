// Quickstart: build a small two-district city, push sensor readings
// through the acquisition pipeline at fog layer 1, move data upward,
// and read it back at every layer.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"f2c"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2017, 6, 1, 8, 0, 0, 0, time.UTC)
	clock := f2c.NewVirtualClock(start)

	topo, err := f2c.NewTopology("Demoville", []f2c.District{
		{Name: "Harbor", Sections: 2, Centroid: f2c.GeoPoint{Lat: 41.37, Lon: 2.18}},
		{Name: "Hills", Sections: 1, Centroid: f2c.GeoPoint{Lat: 41.42, Lon: 2.12}},
	})
	if err != nil {
		return err
	}
	sys, err := f2c.NewSystem(f2c.Options{
		Topology: topo,
		Clock:    clock,
		City:     "Demoville",
		Dedup:    true, // redundant-data elimination at fog layer 1
		Quality:  true, // range/freshness checks at acquisition
		Codec:    f2c.CodecZip,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	fogNode := sys.Fog1IDs()[0]

	// A temperature sensor publishes three readings; the middle one
	// repeats and will be eliminated, the last is implausible and
	// will be rejected by the quality phase.
	for i, v := range []float64{21.5, 21.5, 400} {
		at := start.Add(time.Duration(i) * time.Minute)
		clock.AdvanceTo(at)
		batch := &f2c.Batch{
			NodeID: "edge", TypeName: "temperature", Category: f2c.CategoryEnergy, Collected: at,
			Readings: []f2c.Reading{{
				SensorID: "harbor/thermo-1", TypeName: "temperature",
				Category: f2c.CategoryEnergy, Time: at, Value: v, Unit: "C",
			}},
		}
		if err := sys.IngestAt(fogNode, batch); err != nil {
			return err
		}
	}

	// Real-time read: served locally by the fog node.
	fog, _ := sys.Fog1(fogNode)
	r, found := fog.Latest("harbor/thermo-1")
	fmt.Printf("real-time read at %s: found=%v value=%.1f %s\n", fogNode, found, r.Value, r.Unit)

	// Move data up the hierarchy: fog1 -> fog2 -> cloud.
	if err := sys.FlushAll(ctx); err != nil {
		return err
	}

	// Historical read at the cloud: only the one clean, non-redundant
	// reading survived the acquisition pipeline.
	hist := sys.Cloud().Historical("temperature", start.Add(-time.Hour), start.Add(time.Hour))
	fmt.Printf("cloud archive now holds %d temperature reading(s):\n", len(hist))
	for _, h := range hist {
		fmt.Printf("  %s  %s  %.1f %s\n", h.Time.Format(time.RFC3339), h.SensorID, h.Value, h.Unit)
	}

	// Per-hop traffic the data movement produced.
	fmt.Printf("\ntraffic matrix:\n%s", sys.Matrix().String())
	return nil
}
