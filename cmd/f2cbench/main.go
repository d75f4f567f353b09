// Command f2cbench regenerates the paper's evaluation artifacts:
//
//	f2cbench -exp table1      # Table I (redundant data aggregation model)
//	f2cbench -exp fig6        # Barcelona F2C topology (Fig. 6)
//	f2cbench -exp fig7        # per-category volumes (Fig. 7 a-e)
//	f2cbench -exp compress    # Zip compression measurement (§V.B)
//	f2cbench -exp advantages  # quantified §IV.D claims
//	f2cbench -exp daysim      # measured simulated day over the hierarchy
//	f2cbench -exp all         # every paper artifact
//
// Performance numbers live in bench/ (go -C bench run .), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/core"
	"f2c/internal/experiment"
	"f2c/internal/model"
	"f2c/internal/placement"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "f2cbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("f2cbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1|fig6|fig7|compress|advantages|daysim|all")
	scale := fs.Int("scale", 500, "daysim: sensor-count divisor")
	duration := fs.Duration("duration", 2*time.Hour, "daysim: simulated span")
	seed := fs.Int64("seed", 1, "workload seed")
	codec := fs.String("codec", "zip", "compression codec: none|flate|gzip|zip")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cd, err := parseCodec(*codec)
	if err != nil {
		return err
	}
	run := map[string]func() error{
		"table1":     table1,
		"fig6":       fig6,
		"fig7":       func() error { return fig7(cd, *seed) },
		"compress":   func() error { return compress(*seed) },
		"advantages": advantages,
		"daysim":     func() error { return daysim(*scale, *duration, *seed, cd) },
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig6", "fig7", "compress", "advantages", "daysim"} {
			fmt.Printf("==== %s ====\n", name)
			if err := run[name](); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := run[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return fn()
}

func parseCodec(s string) (aggregate.Codec, error) {
	for _, c := range []aggregate.Codec{aggregate.CodecNone, aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown codec %q", s)
}

func table1() error {
	fmt.Print(experiment.FormatTable1(experiment.Table1()))
	cloudModel, f2c := experiment.Table1GrandTotals()
	fmt.Printf("\npaper: 8,583,503,168 B/day (cloud) vs 5,036,071,584 B/day (F2C)\n")
	fmt.Printf("repro: %d B/day (cloud) vs %d B/day (F2C), reduction %.1f%%\n",
		cloudModel, f2c, 100*(1-float64(f2c)/float64(cloudModel)))
	return nil
}

func fig6() error {
	topo := topology.Barcelona()
	f1, f2, cl := topo.Counts()
	fmt.Printf("Barcelona F2C layout: %d fog layer-1 nodes (sections), %d fog layer-2 nodes (districts), %d cloud\n\n", f1, f2, cl)
	fmt.Print(topo.Describe())
	return nil
}

func fig7(codec aggregate.Codec, seed int64) error {
	// Measure a live compression ratio on synthetic Sentilo data and
	// print the figure with both the measured and the paper factor.
	res, err := experiment.CompressionStudy(codec, 512*1024, seed)
	if err != nil {
		return err
	}
	fmt.Printf("with paper compression factor (%.4f):\n", experiment.PaperCompressionRatio)
	fmt.Print(experiment.FormatFig7(experiment.Fig7(experiment.PaperCompressionRatio)))
	fmt.Printf("\nwith measured %s factor (%.4f):\n", res.Codec, res.Ratio)
	fmt.Print(experiment.FormatFig7(experiment.Fig7(res.Ratio)))
	return nil
}

func compress(seed int64) error {
	for _, codec := range []aggregate.Codec{aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		res, err := experiment.CompressionStudy(codec, 1024*1024, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatCompression(res))
	}
	return nil
}

func advantages() error {
	p := placement.NewPlanner(placement.DefaultConfig())
	fmt.Print(experiment.FormatAdvantages(experiment.ComputeAdvantages(p, 1024, 4)))
	return nil
}

func daysim(scale int, duration time.Duration, seed int64, codec aggregate.Codec) error {
	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := sim.NewVirtualClock(start)
	sys, err := core.NewSystem(core.Options{
		Clock:   clock,
		Dedup:   true,
		Quality: true,
		Codec:   codec,
	})
	if err != nil {
		return err
	}
	began := time.Now()
	res, err := sys.RunDay(core.DayConfig{Start: start, Duration: duration, Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("simulated %v of Barcelona at 1/%d scale in %v (%d events, %d readings)\n",
		duration, scale, time.Since(began).Round(time.Millisecond), res.Events, res.GeneratedReadings)
	fmt.Printf("edge->fog1   %12d B (x%d scale = %.3f GB city-wide)\n",
		res.EdgeBytes, res.Scale, experiment.GB(res.ScaledEdgeBytes()))
	fmt.Printf("fog1->fog2   %12d B\n", res.Fog1ToFog2Bytes)
	fmt.Printf("fog2->cloud  %12d B (x%d scale = %.3f GB city-wide)\n",
		res.Fog2ToCloudBytes, res.Scale, experiment.GB(res.ScaledFog2ToCloudBytes()))
	fmt.Printf("archived %d batches at the cloud\n\n", res.CloudArchivedBatches)
	fmt.Println("measured redundant-data elimination per category:")
	for _, c := range model.Categories() {
		share, ok := res.DedupShare[c]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s measured %.1f%% (paper %.0f%%)\n", c, 100*share, 100*c.RedundantShare())
	}
	return nil
}
