// Command citysim runs a deterministic discrete-event simulation of a
// full smart-city day over the Barcelona F2C hierarchy and prints the
// measured traffic report:
//
//	citysim -scale 200 -duration 24h -codec zip
//
// At -scale 1 every one of the 1,005,019 catalog sensors is simulated;
// larger scales divide the population to trade fidelity for speed (the
// byte report extrapolates back).
//
// With -live it hosts the city over real loopback tcpnet sockets
// instead and serves until SIGTERM — the target f2cload and f2cctl
// drive:
//
//	citysim -live -flush1 1s -flush2 2s -cluster-out cluster.json
//
// Either way the city is one deployment document (-config; see
// internal/config): without one, the flags sketch it over the
// Barcelona default.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/experiment"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "citysim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("citysim", flag.ContinueOnError)
	scale := fs.Int("scale", 200, "sensor-count divisor (1 = every sensor)")
	duration := fs.Duration("duration", 24*time.Hour, "simulated span")
	seed := fs.Int64("seed", 1, "workload seed")
	codecName := fs.String("codec", "zip", "upward compression: none|flate|gzip|zip")
	dedup := fs.Bool("dedup", true, "redundant-data elimination at fog layer 1")
	flush1 := fs.Duration("flush1", 15*time.Minute, "fog layer-1 flush interval")
	flush2 := fs.Duration("flush2", time.Hour, "fog layer-2 flush interval")
	category := fs.String("category", "", "restrict to one category (energy|noise|garbage|parking|urban)")
	cfgPath := fs.String("config", "", "deployment JSON declaring the city and every node's profile (replaces the Barcelona default, the -codec/-dedup/-flush flags and the -live grid)")
	writeCfg := fs.String("write-config", "", "write the Barcelona deployment JSON to this path and exit")
	live := fs.Bool("live", false, "host the hierarchy over real loopback tcpnet sockets and serve until SIGTERM (load-harness target) instead of simulating")
	liveDistricts := fs.Int("live-districts", 2, "districts of the live city")
	liveSections := fs.Int("live-sections", 2, "sections per district of the live city")
	liveHost := fs.String("live-host", "127.0.0.1", "host the live city's listeners bind")
	liveDataDir := fs.String("live-data-dir", "", "durability directory for the live city: every node keeps its journal under <dir>/<node id> and its segment store under <dir>/<node id>/store, and recovers both on restart (overrides the document's dataDir)")
	clusterOut := fs.String("cluster-out", "", "write the live city's cluster JSON (node id -> address) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeCfg != "" {
		if err := config.Barcelona().Save(*writeCfg); err != nil {
			return err
		}
		fmt.Printf("wrote Barcelona deployment to %s\n", *writeCfg)
		return nil
	}
	// The deployment document declares the city either way; without
	// one, the flags sketch it over the Barcelona default.
	dep := config.Barcelona()
	if *cfgPath != "" {
		var err error
		if dep, err = config.Load(*cfgPath); err != nil {
			return err
		}
	} else {
		if *flush1 < time.Second || *flush2 < time.Second {
			return fmt.Errorf("-flush1 and -flush2 must be at least 1s (the deployment document counts whole seconds)")
		}
		dep.Codec, dep.Dedup = *codecName, *dedup
		dep.Fog1FlushSeconds = int(flush1.Seconds())
		dep.Fog2FlushSeconds = int(flush2.Seconds())
		if *live {
			dep.Districts = make([]config.DistrictSpec, *liveDistricts)
			for i := range dep.Districts {
				dep.Districts[i] = config.DistrictSpec{Name: fmt.Sprintf("d%02d", i+1), Sections: *liveSections}
			}
		}
	}
	if *live {
		if *liveDataDir != "" {
			dep.DataDir = *liveDataDir
		}
		return runLive(dep, *liveHost, *clusterOut)
	}
	var types []model.SensorType
	if *category != "" {
		cat, err := model.ParseCategory(*category)
		if err != nil {
			return err
		}
		types = model.CatalogByCategory()[cat]
	}

	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := sim.NewVirtualClock(start)
	matrix := metrics.NewTrafficMatrix()
	opts, err := dep.Options(clock)
	if err != nil {
		return err
	}
	opts.Matrix = matrix
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	for _, sub := range dep.StandingQueries() {
		if err := sys.Subscribe(sub); err != nil {
			return fmt.Errorf("subscribe %s: %w", sub.ID, err)
		}
	}

	f1, f2, _ := sys.Topology().Counts()
	fmt.Printf("simulating %v of %s (%d fog1 / %d fog2 / 1 cloud) at 1/%d scale, codec=%s dedup=%v\n",
		*duration, opts.City, f1, f2, *scale, opts.Codec, opts.Dedup)
	began := time.Now()
	res, err := sys.RunDay(core.DayConfig{
		Start: start, Duration: *duration, Scale: *scale, Seed: *seed, Types: types,
	})
	if err != nil {
		return err
	}
	fmt.Printf("done in %v: %d events, %d readings generated, %d batches archived\n\n",
		time.Since(began).Round(time.Millisecond), res.Events, res.GeneratedReadings, res.CloudArchivedBatches)

	fmt.Println("per-hop traffic (simulation scale):")
	fmt.Print(experiment.HopReport(matrix))
	fmt.Printf("\ncity-wide extrapolation (x%d): edge %.3f GB, fog2->cloud %.3f GB\n",
		res.Scale, experiment.GB(res.ScaledEdgeBytes()), experiment.GB(res.ScaledFog2ToCloudBytes()))

	fmt.Println("\nredundant-data elimination per category (readings removed at fog layer 1):")
	for _, c := range model.Categories() {
		share, ok := res.DedupShare[c]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s measured %5.1f%%   paper %3.0f%%   upstream byte reduction %5.1f%%\n",
			c, 100*share, 100*c.RedundantShare(), 100*res.ByteReduction[c])
	}
	return nil
}
