package aggregate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"f2c/internal/model"
)

// Summary is a decomposable aggregate over a set of readings. It can
// be computed independently per fog node and merged upward through the
// hierarchy without loss — the "decomposable functions" class of the
// distributed-aggregation taxonomy (hierarchic/averaging methods).
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// EmptySummary is the merge identity.
func EmptySummary() Summary {
	return Summary{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Normalize coerces every empty summary to the canonical zero value.
// A summary with Count <= 0 carries no readings, so whatever its
// Sum/Min/Max fields hold is garbage — a wire-decoded push from a
// corrupted or hand-built peer can carry a Count==0 summary with
// non-identity bounds, and without normalization those bounds would
// poison every later Observe/Merge. Decode paths and identity checks
// call this; Observe and Merge normalize internally.
func (s Summary) Normalize() Summary {
	if s.Count <= 0 {
		return Summary{}
	}
	return s
}

// Observe folds one value into the summary.
func (s Summary) Observe(v float64) Summary {
	if s.Count <= 0 {
		// Every empty summary — the zero value, EmptySummary, or a
		// wire-decoded Count==0 carrying stray Min/Max — starts the
		// fold from the identity, so garbage bounds cannot survive
		// into a non-empty summary.
		s = EmptySummary()
	}
	s.Count++
	s.Sum += v
	s.Min = math.Min(s.Min, v)
	s.Max = math.Max(s.Max, v)
	return s
}

// Merge combines two partial summaries. Merge is associative and
// commutative with EmptySummary as identity (property-tested), and
// treats ANY Count<=0 operand as the identity — including adversarial
// empties with non-identity Min/Max, which must never leak through.
func (s Summary) Merge(o Summary) Summary {
	if s.Count <= 0 {
		return o.Normalize()
	}
	if o.Count <= 0 {
		return s
	}
	return Summary{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Min:   math.Min(s.Min, o.Min),
		Max:   math.Max(s.Max, o.Max),
	}
}

// Avg returns the mean (0 for an empty summary).
func (s Summary) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	if s.Count == 0 {
		return "summary(empty)"
	}
	return fmt.Sprintf("summary(n=%d avg=%.3f min=%.3f max=%.3f)", s.Count, s.Avg(), s.Min, s.Max)
}

// Summarize computes a Summary over readings.
func Summarize(readings []model.Reading) Summary {
	s := EmptySummary()
	for i := range readings {
		s = s.Observe(readings[i].Value)
	}
	if s.Count == 0 {
		return Summary{} // normalize: empty summaries compare equal
	}
	return s
}

// WindowSummary is a Summary bound to a time window, used by the
// data-processing block for windowed analysis at any layer.
type WindowSummary struct {
	Start, End time.Time
	Summary
}

// WindowizeByType splits readings into fixed windows per type.
func WindowizeByType(readings []model.Reading, window time.Duration) (map[string][]WindowSummary, error) {
	if window <= 0 {
		return nil, fmt.Errorf("windowize: non-positive window %v", window)
	}
	type key struct {
		typ string
		idx int64
	}
	acc := make(map[key]Summary)
	for i := range readings {
		r := &readings[i]
		k := key{typ: r.TypeName, idx: r.Time.UnixNano() / int64(window)}
		acc[k] = acc[k].Observe(r.Value)
	}
	out := make(map[string][]WindowSummary)
	for k, s := range acc {
		start := time.Unix(0, k.idx*int64(window)).UTC()
		out[k.typ] = append(out[k.typ], WindowSummary{
			Start:   start,
			End:     start.Add(window),
			Summary: s,
		})
	}
	for typ := range out {
		ws := out[typ]
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start.Before(ws[j].Start) })
	}
	return out, nil
}
