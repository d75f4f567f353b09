// Realtime: a critical traffic-alert service placed by the §IV.C cost
// model. The example measures the same read served two ways — locally
// at the fog layer-1 node vs from the cloud over an emulated WAN —
// demonstrating the paper's "real-time data accesses are much faster
// than in a centralized architecture" claim on live code paths.
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
	start := time.Date(2017, 6, 1, 17, 30, 0, 0, time.UTC) // rush hour
	clock := f2c.NewVirtualClock(start)
	sys, err := f2c.NewSystem(f2c.Options{
		Clock:   clock,
		Dedup:   true,
		Quality: true,
		Emulate: true, // wall-clock latency emulation on network hops
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	section := sys.Fog1IDs()[0]

	// Ask the placement planner where the alert service should run.
	spec := f2c.ServiceSpec{
		Name:       "traffic-alert",
		TypeName:   "traffic",
		Window:     5 * time.Minute,
		Compute:    f2c.ComputeLight,
		MaxLatency: 10 * time.Millisecond, // critical real-time bound
	}
	decision, err := sys.Planner().Place(spec)
	if err != nil {
		return err
	}
	fmt.Printf("placement for %q: layer=%s (data at %s), estimated access RTT %v\n",
		spec.Name, decision.Layer, decision.DataLayer, decision.AccessRTT)
	fmt.Printf("reason: %s\n\n", decision.Reason)

	// A congestion reading arrives at the section's fog node.
	batch := &f2c.Batch{
		NodeID: "edge", TypeName: "traffic", Category: f2c.CategoryUrban, Collected: start,
		Readings: []f2c.Reading{{
			SensorID: "gran-via/loop-17", TypeName: "traffic", Category: f2c.CategoryUrban,
			Time: start, Value: 9, Unit: "km/h", // jammed
		}},
	}
	if err := sys.IngestAt(section, batch); err != nil {
		return err
	}
	if err := sys.FlushAll(ctx); err != nil { // also lands at the cloud
		return err
	}

	// Path 1: the service runs at fog layer 1 and reads locally.
	fog, _ := sys.Fog1(section)
	t0 := time.Now()
	r, found := fog.Latest("gran-via/loop-17")
	if !found {
		return fmt.Errorf("fog read failed")
	}
	fogLatency := time.Since(t0)

	// Path 2: the same read served by the cloud over the WAN.
	eng := sys.QueryEngine(section)
	t0 = time.Now()
	_, found, err = eng.LatestFrom(ctx, sys.Cloud().ID(), "gran-via/loop-17")
	if err != nil || !found {
		return fmt.Errorf("cloud read failed: %v", err)
	}
	cloudLatency := time.Since(t0)

	fmt.Printf("traffic at gran-via/loop-17: %.0f %s -> ALERT (congestion)\n", r.Value, r.Unit)
	fmt.Printf("fog layer-1 read:  %8v (local, no network hop)\n", fogLatency.Round(time.Microsecond))
	fmt.Printf("cloud read:        %8v (WAN round trip)\n", cloudLatency.Round(time.Microsecond))
	fmt.Printf("speedup: %.0fx\n", float64(cloudLatency)/float64(fogLatency))

	// The cost model's view of the same comparison.
	adv := sys.Planner()
	fmt.Printf("\ncost model: fog access %v vs centralized two-transfer access %v\n",
		adv.FogAccessRTT(1024), adv.CentralizedAccessRTT(1024))

	// Path 3: the hierarchical query engine. The federated range read
	// is planned over retention windows (local store first, siblings
	// scatter-gathered, then parent and cloud), and the aggregate is
	// pushed down so only a summary-sized payload crosses the network.
	readings, src, err := eng.Range(ctx, "traffic",
		start.Add(-5*time.Minute), start.Add(time.Minute), 1024)
	if err != nil {
		return err
	}
	fmt.Printf("\nfederated range query: %d reading(s) served by the %s tier\n", len(readings), src)
	sum, src, err := eng.Aggregate(ctx, "traffic",
		start.Add(-5*time.Minute), start.Add(time.Minute))
	if err != nil {
		return err
	}
	fmt.Printf("push-down aggregate (%s tier): count=%d mean=%.1f min=%.1f max=%.1f km/h\n",
		src, sum.Count, sum.Avg(), sum.Min, sum.Max)
	return nil
}
