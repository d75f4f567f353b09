// Command bench is the f2c end-to-end benchmark: one city hosted
// in-process over real tcpnet loopback sockets, four workloads, the
// end-to-end metrics of each measured untraced, the per-layer metrics
// measured in a separate traced run. See README.md.
//
//	go run . -workload query_hot -seed 1 -seconds 15 -trace 0
//
// runs one workload in one mode and prints, as the last line of its
// standard output, one JSON object {correct, attempted, failed,
// metrics}. Without -workload it runs every workload in both modes,
// each in its own process, and prints one table; -selfcheck runs
// every workload twice with one seed and once with the next and
// compares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so its deferred clean-up runs.
func run() int {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all, each in its own process)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured seconds per run, split over the repetitions")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut  = flag.String("trace-out", "", "span file of a traced run (default <dir>/trace-<workload>-seed<seed>.jsonl)")
		dir       = flag.String("dir", ".run", "scratch directory for journals, segments and trace files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice with -seed and once with the next; exit non-zero if the same-seed pair disagrees")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	if *workload == "" || *selfcheck {
		return orchestrate(*workload, *seed, *seconds, *dir, *selfcheck)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	traced := *trace == 1
	cfg := runConfig{
		seed: *seed, seconds: *seconds, reps: repetitions, layers: traced, scale: 1,
		// One directory per process: runs may overlap in one checkout.
		dir: filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid())),
	}
	defer os.RemoveAll(cfg.dir)
	var tr *tracer
	specs := endToEnd
	if traced {
		tr, specs = newTracer(), perLayer
	}
	printHeader(w, cfg, traced)
	res, err := runWorkload(w, cfg, tr)
	if err != nil {
		return fail(err)
	}
	if traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
		}
		if err := tr.writeJSONL(path); err != nil {
			return fail(fmt.Errorf("write trace: %w", err))
		}
		fmt.Printf("# trace: %d spans in %s\n", len(tr.spans), path)
	}
	if err := printResult(res, specs); err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// printHeader prints the run header every output carries.
func printHeader(w workloadSpec, cfg runConfig, traced bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	mode := "untraced (end-to-end metrics)"
	if traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Printf("# f2c bench: workload=%s seed=%d seconds=%g repetitions=%d mode=%s\n", w.name, cfg.seed, cfg.seconds, cfg.reps, mode)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# why: %s\n", w.why)
}

// outMetric and outResult are the result line's schema.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// printResult prints the checks, every metric by name with its unit,
// and the result line. A metric that could not be measured (no
// samples) makes the run incorrect rather than reading as zero.
func printResult(res result, specs []metricSpec) error {
	for _, c := range res.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Printf("# check %-18s %-6s %s\n", c.name, verdict, c.detail)
	}
	exact := make([]string, 0, len(res.exact))
	for name := range res.exact {
		exact = append(exact, name)
	}
	sort.Strings(exact)
	for _, name := range exact {
		fmt.Printf("# exact %s=%d\n", name, res.exact[name])
	}
	out := outResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]outMetric, len(specs))}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("# metric %s could not be measured\n", s.name)
			out.Correct = false
			v = -1
		}
		fmt.Printf("%-46s %14.4f %-12s repetitions %.4f\n", s.name, v, s.unit, res.samples[s.name])
		out.Metrics[s.name] = outMetric{Value: v, Unit: s.unit}
	}
	fmt.Printf("# operations: attempted=%d failed=%d correct=%v wall=%.1fs\n", out.Attempted, out.Failed, out.Correct, res.wall.Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
