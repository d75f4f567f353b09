package aggregate

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"f2c/internal/model"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func mkBatch(node string, vals ...float64) *model.Batch {
	b := &model.Batch{NodeID: node, TypeName: "temperature", Category: model.CategoryEnergy, Collected: t0}
	for i, v := range vals {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: node + "/s" + string(rune('a'+i%3)),
			TypeName: "temperature",
			Category: model.CategoryEnergy,
			Time:     t0.Add(time.Duration(i) * time.Second),
			Value:    v,
		})
	}
	return b
}

func TestDeduperFiltersRepeats(t *testing.T) {
	d := NewDeduper()
	// Sensor "sa" repeats 20 across batches; "sb" changes each time.
	b1 := &model.Batch{NodeID: "n", TypeName: "temperature", Category: model.CategoryEnergy, Readings: []model.Reading{
		{SensorID: "sa", TypeName: "temperature", Category: model.CategoryEnergy, Time: t0, Value: 20},
		{SensorID: "sb", TypeName: "temperature", Category: model.CategoryEnergy, Time: t0, Value: 5},
	}}
	b2 := &model.Batch{NodeID: "n", TypeName: "temperature", Category: model.CategoryEnergy, Readings: []model.Reading{
		{SensorID: "sa", TypeName: "temperature", Category: model.CategoryEnergy, Time: t0.Add(time.Minute), Value: 20},
		{SensorID: "sb", TypeName: "temperature", Category: model.CategoryEnergy, Time: t0.Add(time.Minute), Value: 6},
	}}
	got1 := d.Filter(b1)
	if len(got1.Readings) != 2 {
		t.Fatalf("first batch kept %d, want 2 (nothing seen before)", len(got1.Readings))
	}
	got2 := d.Filter(b2)
	if len(got2.Readings) != 1 || got2.Readings[0].SensorID != "sb" {
		t.Fatalf("second batch kept %v, want only sb", got2.Readings)
	}
	in, kept := d.Stats()
	if in != 4 || kept != 3 {
		t.Errorf("stats = (%d,%d), want (4,3)", in, kept)
	}
	if share := d.EliminatedShare(); share != 0.25 {
		t.Errorf("eliminated share = %v, want 0.25", share)
	}
	// Input batch must be untouched.
	if len(b2.Readings) != 2 {
		t.Error("Filter mutated its input")
	}
	d.Reset()
	if in, kept := d.Stats(); in != 0 || kept != 0 {
		t.Error("Reset did not clear stats")
	}
	if d.EliminatedShare() != 0 {
		t.Error("empty deduper should report 0 eliminated")
	}
}

func TestDeduperValueChangeThenRepeatKept(t *testing.T) {
	// A sensor going 20 -> 21 -> 20 is NOT redundant at the third
	// reading: only consecutive repeats of the kept value collapse.
	d := NewDeduper()
	for i, v := range []float64{20, 21, 20} {
		b := &model.Batch{NodeID: "n", TypeName: "t", Category: model.CategoryEnergy, Readings: []model.Reading{
			{SensorID: "s", TypeName: "t", Category: model.CategoryEnergy, Time: t0.Add(time.Duration(i) * time.Minute), Value: v},
		}}
		if got := d.Filter(b); len(got.Readings) != 1 {
			t.Fatalf("reading %d (value %v) was dropped", i, v)
		}
	}
}

func TestSummaryBasics(t *testing.T) {
	s := Summarize([]model.Reading{{Value: 1}, {Value: 2}, {Value: 3}})
	if s.Count != 3 || s.Sum != 6 || s.Min != 1 || s.Max != 3 || s.Avg() != 2 {
		t.Errorf("summary = %+v", s)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Avg() != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	if empty.String() != "summary(empty)" {
		t.Errorf("String = %q", empty.String())
	}
	if s.String() == "" {
		t.Error("non-empty String")
	}
}

func TestSummaryMergeProperties(t *testing.T) {
	// Bound generated values so the algebraic properties are not
	// confounded by float64 overflow/cancellation artifacts.
	sanitize := func(vals []float64) []float64 {
		out := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out = append(out, math.Mod(v, 1e6))
		}
		return out
	}
	summaryFrom := func(vals []float64) Summary {
		s := Summary{}
		for _, v := range sanitize(vals) {
			s = s.Observe(v)
		}
		return s
	}
	eq := func(a, b Summary) bool {
		if a.Count != b.Count {
			return false
		}
		if a.Count == 0 {
			return true
		}
		return math.Abs(a.Sum-b.Sum) < 1e-3 && a.Min == b.Min && a.Max == b.Max
	}

	commutative := func(a, b []float64) bool {
		x, y := summaryFrom(a), summaryFrom(b)
		return eq(x.Merge(y), y.Merge(x))
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}

	associative := func(a, b, c []float64) bool {
		x, y, z := summaryFrom(a), summaryFrom(b), summaryFrom(c)
		return eq(x.Merge(y).Merge(z), x.Merge(y.Merge(z)))
	}
	if err := quick.Check(associative, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}

	identity := func(a []float64) bool {
		x := summaryFrom(a)
		return eq(x.Merge(EmptySummary()), x) && eq(EmptySummary().Merge(x), x) &&
			eq(x.Merge(Summary{}), x) && eq(Summary{}.Merge(x), x)
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}

	// Merging partials equals summarizing the concatenation.
	splitEquivalence := func(a, b []float64) bool {
		a, b = sanitize(a), sanitize(b)
		all := append(append([]float64{}, a...), b...)
		return eq(summaryFrom(a).Merge(summaryFrom(b)), summaryFrom(all))
	}
	if err := quick.Check(splitEquivalence, nil); err != nil {
		t.Errorf("split equivalence: %v", err)
	}

	// Adversarial wire-shaped empties: a Count==0 summary carrying
	// non-identity Sum/Min/Max (a corrupted or hand-built peer payload)
	// must behave exactly like the identity in Merge and Observe — its
	// garbage bounds must never survive into a real summary.
	adversarialIdentity := func(a []float64, sum, lo, hi float64) bool {
		garbage := Summary{Count: 0, Sum: sum, Min: lo, Max: hi}
		x := summaryFrom(a)
		if !eq(x.Merge(garbage), x) || !eq(garbage.Merge(x), x) {
			return false
		}
		// Two garbage empties merge to the canonical zero, not to
		// either operand's stray bounds.
		if g := garbage.Merge(garbage); g != (Summary{}) {
			return false
		}
		// The first observed value alone defines the bounds.
		obs := garbage.Observe(42)
		return obs.Count == 1 && obs.Sum == 42 && obs.Min == 42 && obs.Max == 42
	}
	if err := quick.Check(adversarialIdentity, nil); err != nil {
		t.Errorf("adversarial zero-count identity: %v", err)
	}

	// Negative counts are equally empty: Normalize and the operations
	// coerce them, so an underflowed or hostile Count can not poison a
	// merge either.
	negative := Summary{Count: -7, Sum: 99, Min: 5, Max: -3}
	if got := negative.Normalize(); got != (Summary{}) {
		t.Errorf("Normalize(negative) = %+v, want zero", got)
	}
	real1 := Summary{}.Observe(10)
	if got := negative.Merge(real1); !eq(got, real1) {
		t.Errorf("Merge(negative, real) = %+v, want %+v", got, real1)
	}

	// The concrete poison regression: Min=5/Max=-3 on an empty summary
	// used to survive Observe (Min stayed 5 for an observed 10) and
	// pass through Merge verbatim when both sides were empty.
	poison := Summary{Count: 0, Min: 5, Max: -3}
	if got := poison.Observe(10); got.Min != 10 || got.Max != 10 {
		t.Errorf("Observe on poisoned empty kept stray bounds: %+v", got)
	}
	if got := poison.Merge(Summary{}); got != (Summary{}) {
		t.Errorf("Merge(poison, zero) leaked stray bounds: %+v", got)
	}
}

func TestWindowizeByType(t *testing.T) {
	readings := []model.Reading{
		{TypeName: "a", Time: t0, Value: 1},
		{TypeName: "a", Time: t0.Add(30 * time.Second), Value: 3},
		{TypeName: "a", Time: t0.Add(90 * time.Second), Value: 5},
		{TypeName: "b", Time: t0, Value: 7},
	}
	got, err := WindowizeByType(readings, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(got["a"]) != 2 {
		t.Fatalf("a windows = %d, want 2", len(got["a"]))
	}
	w0 := got["a"][0]
	if w0.Count != 2 || w0.Avg() != 2 {
		t.Errorf("window 0 = %+v", w0)
	}
	if w0.End.Sub(w0.Start) != time.Minute {
		t.Errorf("window span = %v", w0.End.Sub(w0.Start))
	}
	if !got["a"][0].Start.Before(got["a"][1].Start) {
		t.Error("windows not sorted")
	}
	if len(got["b"]) != 1 {
		t.Errorf("b windows = %d, want 1", len(got["b"]))
	}
	if _, err := WindowizeByType(readings, 0); err == nil {
		t.Error("expected error for zero window")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	payload := []byte("sensor;1;20.5;C\nsensor;2;20.5;C\nsensor;3;20.5;C\n")
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		t.Run(c.String(), func(t *testing.T) {
			comp, err := Compress(c, payload)
			if err != nil {
				t.Fatalf("Compress: %v", err)
			}
			back, err := AppendDecompress(nil, c, comp, 0)
			if err != nil {
				t.Fatalf("AppendDecompress: %v", err)
			}
			if string(back) != string(payload) {
				t.Errorf("round trip mismatch")
			}
			if c == CodecNone && len(comp) != len(payload) {
				t.Errorf("none codec changed size")
			}
		})
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	prop := func(data []byte) bool {
		for _, c := range []Codec{CodecFlate, CodecGzip, CodecZip} {
			comp, err := Compress(c, data)
			if err != nil {
				return false
			}
			back, err := AppendDecompress(nil, c, comp, 0)
			if err != nil || len(back) != len(data) {
				return false
			}
			for i := range data {
				if back[i] != data[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompressReducesRedundantText(t *testing.T) {
	line := "bcn/d1/s1/temperature/42;1496275200000000000;21.5;C;41.38000;2.17000\n"
	var payload []byte
	for i := 0; i < 500; i++ {
		payload = append(payload, line...)
	}
	for _, c := range []Codec{CodecFlate, CodecGzip, CodecZip} {
		comp, err := Compress(c, payload)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := Ratio(len(payload), len(comp)); ratio > 0.25 {
			t.Errorf("%s: ratio %.3f, want <= 0.25 on redundant text", c, ratio)
		}
	}
}

func TestCompressErrors(t *testing.T) {
	if _, err := Compress(Codec(0), nil); err == nil {
		t.Error("unknown codec must fail")
	}
	if _, err := AppendDecompress(nil, Codec(0), nil, 0); err == nil {
		t.Error("unknown codec must fail")
	}
	if _, err := AppendDecompress(nil, CodecGzip, []byte("not gzip"), 0); err == nil {
		t.Error("corrupt gzip must fail")
	}
	if _, err := AppendDecompress(nil, CodecZip, []byte("not zip"), 0); err == nil {
		t.Error("corrupt zip must fail")
	}
	if _, err := AppendDecompress(nil, CodecFlate, []byte{0xff, 0xff, 0xff}, 0); err == nil {
		t.Error("corrupt flate must fail")
	}
}

func TestRatioAndSavedShare(t *testing.T) {
	if got := Ratio(100, 22); got != 0.22 {
		t.Errorf("Ratio = %v", got)
	}
	if got := SavedShare(100, 22); math.Abs(got-0.78) > 1e-12 {
		t.Errorf("SavedShare = %v", got)
	}
	if got := Ratio(0, 5); got != 1 {
		t.Errorf("Ratio with zero original = %v, want 1", got)
	}
}

func TestCodecStringsAndValidity(t *testing.T) {
	for _, c := range []Codec{CodecNone, CodecFlate, CodecGzip, CodecZip} {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
		if c.String() == "" {
			t.Errorf("%d has empty name", int(c))
		}
	}
	if Codec(0).Valid() || Codec(9).Valid() {
		t.Error("out-of-range codecs must be invalid")
	}
	if Codec(9).String() != "codec(9)" {
		t.Error("unknown codec should render numerically")
	}
}
