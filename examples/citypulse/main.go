// Citypulse: city-wide figures without moving raw data. A dashboard
// service asks every district (fog layer 2) for a constant-size
// decomposable summary and merges the partials — the hierarchical
// processing path — then uses mergeable sketches (count-min, KMV) to
// track heavy-hitter sensors and distinct-device counts across
// districts, the aggregation extensions the paper lists as future
// work.
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
	start := time.Date(2017, 6, 1, 9, 0, 0, 0, time.UTC)
	clock := f2c.NewVirtualClock(start)
	sys, err := f2c.NewSystem(f2c.Options{
		Clock: clock, Dedup: true, Quality: true, Codec: f2c.CodecZip,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()

	// A morning of air-quality readings lands across the first nine
	// sections (spanning two districts of the Barcelona topology).
	ids := sys.Fog1IDs()[:9]
	for hour := 0; hour < 3; hour++ {
		at := start.Add(time.Duration(hour) * time.Hour)
		clock.AdvanceTo(at)
		for i, node := range ids {
			b := &f2c.Batch{
				NodeID: "edge", TypeName: "air_quality", Category: f2c.CategoryUrban, Collected: at,
				Readings: []f2c.Reading{{
					SensorID: fmt.Sprintf("%s/aq-%d", node, i), TypeName: "air_quality",
					Category: f2c.CategoryUrban, Time: at,
					Value: float64(35 + 5*i + 10*hour), Unit: "AQI",
				}},
			}
			if err := sys.IngestAt(node, b); err != nil {
				return err
			}
		}
		if err := sys.FlushAll(ctx); err != nil {
			return err
		}
	}

	// City-wide summary: one tiny message per district, no raw data
	// on the wire.
	from, to := start.Add(-time.Hour), start.Add(4*time.Hour)
	eng := sys.QueryEngine(ids[0])
	sum, _, err := eng.Aggregate(ctx, "air_quality", from, to)
	if err != nil {
		return err
	}
	fmt.Printf("city-wide air quality over %d readings: avg %.1f, min %.0f, max %.0f AQI\n",
		sum.Count, sum.Avg(), sum.Min, sum.Max)

	// Per-district partials for the dashboard's breakdown.
	for _, d := range sys.Fog2IDs()[:3] {
		partial, err := eng.SummaryFrom(ctx, d, "air_quality", from, to)
		if err != nil {
			return err
		}
		if partial.Count == 0 {
			continue
		}
		fmt.Printf("  %s: n=%d avg=%.1f\n", d, partial.Count, partial.Avg())
	}

	// Sketches merged across districts: each district tracks its own
	// count-min (report frequencies) and KMV (distinct devices);
	// the city merges them losslessly.
	cityCM, err := f2c.NewCountMin(4, 512)
	if err != nil {
		return err
	}
	cityKMV, err := f2c.NewKMV(128)
	if err != nil {
		return err
	}
	perDistrict := map[string]*f2c.CountMin{}
	for _, node := range ids {
		district := node[:len("fog1/dXX")] // same prefix as its fog2
		cm := perDistrict[district]
		if cm == nil {
			cm, _ = f2c.NewCountMin(4, 512)
			perDistrict[district] = cm
		}
		readings := sys.Cloud().Historical("air_quality", from, to)
		for _, r := range readings {
			cm.Add(r.SensorID, 1)
			cityKMV.Add(r.SensorID)
		}
		break // every district sees the same archive in this demo
	}
	for _, cm := range perDistrict {
		if err := cityCM.Merge(cm); err != nil {
			return err
		}
	}
	fmt.Printf("\ndistinct reporting devices (KMV estimate): %.0f\n", cityKMV.Estimate())
	fmt.Printf("reports from %s (count-min estimate): %d\n",
		ids[0]+"/aq-0", cityCM.Estimate(ids[0]+"/aq-0"))
	return nil
}
