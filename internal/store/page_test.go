package store

import (
	"testing"
	"time"

	"f2c/internal/model"
)

var pt0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func pagedBatch(typeName string, n int, step time.Duration) *model.Batch {
	b := &model.Batch{NodeID: "n1", TypeName: typeName, Category: model.CategoryUrban, Collected: pt0}
	for i := 0; i < n; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: "s1", TypeName: typeName, Category: model.CategoryUrban,
			Time: pt0.Add(time.Duration(i) * step), Value: float64(i),
		})
	}
	return b
}

func TestQueryRangePageWalk(t *testing.T) {
	s := NewTimeSeries(0)
	if err := s.Append(pagedBatch("traffic", 25, time.Second)); err != nil {
		t.Fatal(err)
	}
	from, to := pt0.Add(-time.Minute), pt0.Add(time.Hour)

	var all []model.Reading
	cursor, pages := "", 0
	for {
		page, next, err := s.QueryRangePage("traffic", from, to, 4, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 4 {
			t.Fatalf("page %d carries %d readings, limit 4", pages, len(page))
		}
		all = append(all, page...)
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	if len(all) != 25 || pages != 7 {
		t.Fatalf("walk = %d readings in %d pages, want 25 in 7", len(all), pages)
	}
	for i := range all {
		if all[i].Value != float64(i) {
			t.Fatalf("reading %d out of order: %+v", i, all[i])
		}
	}
	// The full walk matches the unpaged scan.
	whole := s.QueryRange("traffic", from, to)
	if len(whole) != len(all) {
		t.Errorf("unpaged = %d readings", len(whole))
	}
}

func TestQueryRangePageEqualTimestamps(t *testing.T) {
	// 10 readings at the same instant must survive a limit-3 walk
	// without loss or duplication (the cursor's skip component).
	s := NewTimeSeries(0)
	b := &model.Batch{NodeID: "n1", TypeName: "noise", Category: model.CategoryUrban, Collected: pt0}
	for i := 0; i < 10; i++ {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: "s1", TypeName: "noise", Category: model.CategoryUrban,
			Time: pt0, Value: float64(i),
		})
	}
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	var all []model.Reading
	cursor := ""
	for {
		page, next, err := s.QueryRangePage("noise", pt0.Add(-time.Minute), pt0.Add(time.Minute), 3, cursor)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		if next == "" {
			break
		}
		cursor = next
	}
	if len(all) != 10 {
		t.Fatalf("walk over equal timestamps = %d readings, want 10", len(all))
	}
	seen := make(map[float64]bool)
	for _, r := range all {
		if seen[r.Value] {
			t.Fatalf("duplicate reading %v", r.Value)
		}
		seen[r.Value] = true
	}
}

func TestQueryRangePageUnbounded(t *testing.T) {
	s := NewTimeSeries(0)
	_ = s.Append(pagedBatch("traffic", 8, time.Second))
	page, next, err := s.QueryRangePage("traffic", pt0, pt0.Add(time.Hour), 0, "")
	if err != nil || next != "" || len(page) != 8 {
		t.Errorf("unbounded page = %d readings, next %q, err %v", len(page), next, err)
	}
}

func TestQueryRangePageBadCursor(t *testing.T) {
	s := NewTimeSeries(0)
	for _, cursor := range []string{"junk", "1.x", "x.1", "1.-2"} {
		if _, _, err := s.QueryRangePage("traffic", pt0, pt0.Add(time.Hour), 4, cursor); err == nil {
			t.Errorf("cursor %q: expected error", cursor)
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	c := Cursor{T: pt0.UnixNano(), Skip: 3}
	got, err := ParseCursor(c.String())
	if err != nil || got != c {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}

func TestQueryRangePageOutOfOrderBatches(t *testing.T) {
	s := NewTimeSeries(0)
	// Two batches arriving out of time order: the paged scan must
	// still produce a sorted, complete walk.
	later := pagedBatch("traffic", 6, time.Second)
	for i := range later.Readings {
		later.Readings[i].Time = later.Readings[i].Time.Add(time.Minute)
		later.Readings[i].Value += 100
	}
	if err := s.Append(later); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(pagedBatch("traffic", 6, time.Second)); err != nil {
		t.Fatal(err)
	}
	var all []model.Reading
	cursor, pages := "", 0
	for {
		page, next, err := s.QueryRangePage("traffic", pt0.Add(-time.Hour), pt0.Add(time.Hour), 5, cursor)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 5 {
			t.Fatalf("page carries %d readings, limit 5", len(page))
		}
		all = append(all, page...)
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	if len(all) != 12 || pages != 3 {
		t.Fatalf("walk = %d readings in %d pages, want 12 in 3", len(all), pages)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Time.Before(all[i-1].Time) {
			t.Fatalf("walk out of order at %d", i)
		}
	}
}
