package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// childRun is what one child process reported.
type childRun struct {
	out   outResult
	exact map[string]string // "# exact name=value" lines: counters that must repeat for a seed
}

// runChild runs one workload in one mode in a process of its own, so
// heap state and resident-set marks never leak from one workload into
// the next. echo passes the child's report through.
func runChild(workload string, seed int64, seconds float64, trace int, dir string, echo bool) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-dir", dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	run := childRun{exact: make(map[string]string)}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "# exact "); ok {
			if name, value, ok := strings.Cut(rest, "="); ok {
				run.exact[name] = value
			}
		}
		if echo && !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	if err := json.Unmarshal([]byte(last), &run.out); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d trace %d: result line: %w", workload, seed, trace, err)
	}
	return run, nil
}

// orchestrate is the benchmark without -workload: every workload (or
// the one named) in child processes. Plain: each untraced, then
// traced, reports passed through, and a closing summary with the
// tracing overhead. Selfcheck: each untraced twice with seed
// and once with seed+1; every end-to-end metric of the same-seed pair
// must agree within its bound and every exact counter must be equal.
// It returns the process exit code.
func orchestrate(only string, seed int64, seconds float64, dir string, selfcheck bool) int {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if only == "" || only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", only)
		return 2
	}
	ok := true
	for _, name := range names {
		var err error
		var good bool
		if selfcheck {
			good, err = selfcheckWorkload(name, seed, seconds, dir)
		} else {
			good, err = fullWorkload(name, seed, seconds, dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ok = ok && good
	}
	if !ok {
		return 1
	}
	return 0
}

// maxTraceOverheadPct is the tracing overhead above which a traced
// run's numbers no longer stand for the untraced program.
const maxTraceOverheadPct = 5

// fullWorkload runs one workload untraced, then traced, and prints
// trace.overhead_pct: the traced run's cpu_us_per_reading over the
// untraced one's, less one. Above maxTraceOverheadPct the traced
// numbers are flagged.
func fullWorkload(name string, seed int64, seconds float64, dir string) (bool, error) {
	plain, err := runChild(name, seed, seconds, 0, dir, true)
	if err != nil {
		return false, err
	}
	traced, err := runChild(name, seed, seconds, 1, dir, true)
	if err != nil {
		return false, err
	}
	base, with := plain.out.Metrics["cpu_us_per_reading"].Value, traced.out.Metrics["trace.cpu_us_per_reading"].Value
	overhead := 100 * (with - base) / base
	fmt.Printf("%-46s %14.4f %-12s cpu_us_per_reading %.4f untraced, %.4f traced\n", "trace.overhead_pct", overhead, "%", base, with)
	flag := ""
	if overhead > maxTraceOverheadPct {
		flag = fmt.Sprintf(", per-layer numbers FLAGGED: tracing overhead above %d %%", maxTraceOverheadPct)
	}
	fmt.Printf("# summary %s: untraced correct=%v failed=%d/%d, traced correct=%v failed=%d/%d%s\n",
		name, plain.out.Correct, plain.out.Failed, plain.out.Attempted,
		traced.out.Correct, traced.out.Failed, traced.out.Attempted, flag)
	return plain.out.Correct && traced.out.Correct && plain.out.Failed == 0 && traced.out.Failed == 0, nil
}

func selfcheckWorkload(name string, seed int64, seconds float64, dir string) (bool, error) {
	var runs [3]childRun
	for i, s := range []int64{seed, seed, seed + 1} {
		r, err := runChild(name, s, seconds, 0, dir, false)
		if err != nil {
			return false, err
		}
		runs[i] = r
	}
	a, b, c := runs[0], runs[1], runs[2]
	ok := true
	fmt.Printf("# selfcheck %s: seed %d twice, seed %d once\n", name, seed, seed+1)
	fmt.Printf("%-28s %14s %14s %8s %14s %7s  %s\n", "metric", "seed (1st)", "seed (2nd)", "ratio", "seed+1", "bound", "verdict")
	for _, s := range endToEnd {
		va, vb, vc := a.out.Metrics[s.name].Value, b.out.Metrics[s.name].Value, c.out.Metrics[s.name].Value
		verdict, bound := "ok", boundOn(s, name)
		if math.Abs(vb-va) > bound*math.Abs(va) {
			verdict, ok = "DISAGREES", false
		}
		fmt.Printf("%-28s %14.4f %14.4f %8.4f %14.4f %6.0f%%  %s\n", s.name, va, vb, vb/va, vc, 100*bound, verdict)
	}
	exact := make([]string, 0, len(a.exact))
	for name := range a.exact {
		exact = append(exact, name)
	}
	sort.Strings(exact)
	for _, name := range exact {
		verdict := "ok"
		if b.exact[name] != a.exact[name] {
			verdict, ok = "DIFFERS", false
		}
		fmt.Printf("%-28s %14s %14s %8s %14s %7s  %s\n", name, a.exact[name], b.exact[name], "", c.exact[name], "exact", verdict)
	}
	for i, r := range runs {
		if !r.out.Correct || r.out.Failed != 0 {
			fmt.Printf("# run %d: correct=%v failed=%d of %d\n", i, r.out.Correct, r.out.Failed, r.out.Attempted)
			ok = false
		}
	}
	return ok, nil
}
