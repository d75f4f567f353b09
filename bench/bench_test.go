package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/protocol"
)

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {-1, 1}, {2, 5},
	} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if s[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty series: %v, want NaN", got)
	}
}

func TestSlotScheduleSkipsOverrunsWithoutDrift(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := slotSchedule{t0: t0, phase: 125 * time.Millisecond, period: 250 * time.Millisecond}
	if got := s.due(3); !got.Equal(t0.Add(875 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got.Sub(t0))
	}
	// A flush that ends inside its own period resumes at the next slot.
	if next, skipped := s.after(0, s.due(0).Add(40*time.Millisecond)); next != 1 || skipped != 0 {
		t.Errorf("in time: next %d skipped %d", next, skipped)
	}
	// One that runs 2.3 periods skips the two slots that came due
	// meanwhile and lands on a timetable instant, not 2.3 periods on.
	next, skipped := s.after(4, s.due(4).Add(575*time.Millisecond))
	if next != 7 || skipped != 2 {
		t.Errorf("overrun: next %d skipped %d, want 7 and 2", next, skipped)
	}
	if got := s.due(next).Sub(t0); got != 125*time.Millisecond+7*250*time.Millisecond {
		t.Errorf("resumed off the timetable at %v", got)
	}
	// Ending exactly on a slot: that slot is already due, so it is skipped.
	if next, skipped := s.after(0, s.due(1)); next != 2 || skipped != 1 {
		t.Errorf("on the boundary: next %d skipped %d", next, skipped)
	}
}

func TestOffsetClock(t *testing.T) {
	at := time.Now().Add(-30 * time.Hour).Truncate(time.Millisecond)
	c := newOffsetClock(at)
	if !c.Now().Equal(at) || !c.Now().Equal(at) {
		t.Fatal("a frozen clock moved")
	}
	c.Step(time.Minute)
	c.Step(time.Minute)
	if got := c.Now().Sub(at); got != 2*time.Minute {
		t.Fatalf("stepped %v, want 2m", got)
	}
	t0 := c.Pin()
	if !t0.Equal(at.Add(2 * time.Minute)) {
		t.Fatalf("pinned at %v", t0.Sub(at))
	}
	a := c.Now()
	time.Sleep(5 * time.Millisecond)
	b := c.Now()
	if a.Before(t0) || b.Sub(a) < 5*time.Millisecond || b.Sub(t0) > time.Second {
		t.Errorf("pinned clock does not run with wall time from T0: +%v then +%v", a.Sub(t0), b.Sub(t0))
	}
	c.Step(time.Hour)
	if got := c.Now().Sub(t0); got > time.Second {
		t.Errorf("a pinned clock stepped by %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root 0..100 with children 10..40 and 30..60 (overlapping) and a
	// grandchild 15..25 under the first.
	nested := []span{
		{Name: "fognode.fog1.flush", ID: 1, Start: 0, End: 100},
		{Name: "tcpnet.fog1_fog2.send", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "tcpnet.fog1_fog2.send", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "fognode.fog2.handle_ingest", ID: 4, Parent: 2, Start: 15, End: 25},
	}
	tr := buildTree(nested)
	if got := tr.covered(nested[0]); got != 50 {
		t.Errorf("covered = %d, want the union 10..60 = 50", got)
	}
	if got := tr.self(nested[0]); got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := tr.self(nested[1]); got != 20 {
		t.Errorf("send self = %d, want 30 - 10", got)
	}
	self, par := tr.treeTotals(nested[0])
	// self: 50 + 20 + 30 + 10; the sends double-cover 30..40.
	if self != 110 || par != 10 || self-par != nested[0].dur() {
		t.Errorf("self %d parallel %d: self - parallel must be the root's %d", self, par, nested[0].dur())
	}
	if orphans, bad := tr.treeHealth(nested); orphans != 0 || bad != 0 {
		t.Errorf("healthy tree reported %d orphans, %d unbalanced", orphans, bad)
	}

	// A child leaking 20 past its parent's end breaks the balance, and
	// a handler nobody sent to is an orphan.
	broken := []span{
		{Name: "query.latest", ID: 1, Start: 0, End: 100},
		{Name: spanQuerySend, ID: 2, Parent: 1, Start: 50, End: 120},
		{Name: "cloud.handle_query", ID: 3, Start: 5, End: 6},
	}
	tr = buildTree(broken)
	if got := tr.self(broken[0]); got != 50 {
		t.Errorf("self with a leaking child = %d, want 50 (clipped)", got)
	}
	if orphans, bad := tr.treeHealth(broken); orphans != 1 || bad != 1 {
		t.Errorf("broken tree: %d orphans, %d unbalanced, want 1 and 1", orphans, bad)
	}
}

func TestEnvelopeSeq(t *testing.T) {
	in, err := generateInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	var s protocol.Sealer
	v2, err := s.SealSeq(nil, in.small[0], aggregate.CodecZip, 0xDEADBEEF01)
	if err != nil {
		t.Fatal(err)
	}
	if got := envelopeSeq(v2); got != 0xDEADBEEF01 {
		t.Errorf("v2 envelope seq = %#x", got)
	}
	v1, err := s.Seal(nil, in.small[0], aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	if got := envelopeSeq(v1); got != 0 {
		t.Errorf("v1 envelope seq = %#x, want 0", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and spec.go
// together: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default -seconds is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from spec %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end_to_end[%d] = %+v, spec %+v", i, m, s)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		s := perLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, spec %+v", i, m, s)
		}
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.name) || !unitRE.MatchString(s.unit) {
			t.Errorf("metric %q unit %q outside the schema's alphabet", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %q: better = %q", s.name, s.better)
		}
		if seen[s.name] {
			t.Errorf("name %q used twice", s.name)
		}
		seen[s.name] = true
	}
}

// TestSmoke runs every workload traced at a fraction of its size —
// one short repetition on a small preload — and asserts the ledger,
// that every declared metric is present and finite, and the health of
// the span trees. The layer pass rides along once.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	for i, w := range workloads {
		w, layers := w, i == 0
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: 0.5, reps: 1, layers: layers, scale: 0.1, dir: t.TempDir()}
			res, err := runWorkload(w, cfg, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.checks {
				if !c.ok {
					t.Errorf("check %s failed: %s", c.name, c.detail)
				}
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
			}
			for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				if s.source == sourceLayerPass && !layers {
					continue
				}
				v, ok := res.metrics[s.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s: present=%v value=%v", s.name, ok, v)
				}
			}
			for _, name := range []string{"trace.orphan_spans", "trace.unbalanced_trees", "fognode.duplicate_batches", "sched.rejected"} {
				if v := res.metrics[name]; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
			if res.metrics["trace.spans"] == 0 {
				t.Error("a traced run recorded no spans")
			}
		})
	}
}
