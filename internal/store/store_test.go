package store

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"f2c/internal/model"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func batchAt(node, typ string, at time.Time, sensors ...string) *model.Batch {
	b := &model.Batch{NodeID: node, TypeName: typ, Category: model.CategoryUrban, Collected: at}
	for i, s := range sensors {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: s, TypeName: typ, Category: model.CategoryUrban,
			Time: at, Value: float64(i),
		})
	}
	return b
}

func TestTimeSeriesAppendAndQuery(t *testing.T) {
	s := NewTimeSeries(0)
	if err := s.Append(batchAt("n", "traffic", t0, "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(batchAt("n", "traffic", t0.Add(time.Minute), "a")); err != nil {
		t.Fatal(err)
	}
	got := s.QueryRange("traffic", t0, t0.Add(time.Hour))
	if len(got) != 3 {
		t.Fatalf("query = %d readings, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("query result not time-sorted")
		}
	}
	// Bounded range.
	if got := s.QueryRange("traffic", t0.Add(30*time.Second), t0.Add(time.Hour)); len(got) != 1 {
		t.Errorf("bounded query = %d, want 1", len(got))
	}
	if got := s.QueryRange("unknown", t0, t0.Add(time.Hour)); got != nil {
		t.Errorf("unknown type query = %v, want nil", got)
	}
	st := s.Stats()
	if st.Readings != 3 || st.Series != 1 || st.ApproxBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if types := s.Types(); len(types) != 1 || types[0] != "traffic" {
		t.Errorf("types = %v", types)
	}
}

func TestTimeSeriesLatest(t *testing.T) {
	s := NewTimeSeries(0)
	_ = s.Append(batchAt("n", "traffic", t0, "a"))
	_ = s.Append(batchAt("n", "traffic", t0.Add(time.Minute), "a"))
	r, ok := s.Latest("a")
	if !ok || !r.Time.Equal(t0.Add(time.Minute)) {
		t.Errorf("Latest = %+v ok=%v", r, ok)
	}
	// An out-of-order older append must not regress Latest.
	_ = s.Append(batchAt("n", "traffic", t0.Add(-time.Minute), "a"))
	if r, _ := s.Latest("a"); !r.Time.Equal(t0.Add(time.Minute)) {
		t.Errorf("Latest regressed to %v", r.Time)
	}
	if _, ok := s.Latest("nope"); ok {
		t.Error("unknown sensor should not have a latest reading")
	}
}

func TestTimeSeriesOutOfOrderQuery(t *testing.T) {
	s := NewTimeSeries(0)
	_ = s.Append(batchAt("n", "traffic", t0.Add(2*time.Minute), "a"))
	_ = s.Append(batchAt("n", "traffic", t0, "b"))
	_ = s.Append(batchAt("n", "traffic", t0.Add(time.Minute), "c"))
	got := s.QueryRange("traffic", t0, t0.Add(time.Hour))
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	if got[0].SensorID != "b" || got[1].SensorID != "c" || got[2].SensorID != "a" {
		t.Errorf("order = %v %v %v", got[0].SensorID, got[1].SensorID, got[2].SensorID)
	}
}

func TestTimeSeriesEviction(t *testing.T) {
	s := NewTimeSeries(time.Hour)
	_ = s.Append(batchAt("n", "traffic", t0, "a"))
	_ = s.Append(batchAt("n", "traffic", t0.Add(30*time.Minute), "b"))
	_ = s.Append(batchAt("n", "traffic", t0.Add(2*time.Hour), "c"))
	evicted := s.Evict(t0.Add(2 * time.Hour))
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	if got := s.QueryRange("traffic", t0, t0.Add(3*time.Hour)); len(got) != 1 || got[0].SensorID != "c" {
		t.Errorf("after evict: %v", got)
	}
	if st := s.Stats(); st.Readings != 1 {
		t.Errorf("stats after evict = %+v", st)
	}
	// Latest survives eviction (real-time reads stay possible).
	if _, ok := s.Latest("a"); !ok {
		t.Error("latest should survive eviction")
	}
	// Evicting everything removes the series.
	if n := s.Evict(t0.Add(100 * time.Hour)); n != 1 {
		t.Errorf("second evict = %d, want 1", n)
	}
	if types := s.Types(); len(types) != 0 {
		t.Errorf("types after full evict = %v", types)
	}
}

func TestTimeSeriesNoRetentionNeverEvicts(t *testing.T) {
	s := NewTimeSeries(0)
	_ = s.Append(batchAt("n", "traffic", t0, "a"))
	if n := s.Evict(t0.Add(1000 * time.Hour)); n != 0 {
		t.Errorf("permanent store evicted %d", n)
	}
	if s.Retention() != 0 {
		t.Error("retention should be 0")
	}
}

// TestTimeSeriesEvictBefore: an explicit cutoff destroys exactly the
// readings older than it, even on a permanent store, keeps the count
// in step and leaves every sensor's latest reading addressable.
func TestTimeSeriesEvictBefore(t *testing.T) {
	s := NewTimeSeries(0)
	_ = s.Append(batchAt("n", "traffic", t0, "a", "b"))
	_ = s.Append(batchAt("n", "traffic", t0.Add(time.Hour), "c"))
	_ = s.Append(batchAt("n", "noise", t0.Add(-time.Minute), "d"))
	_ = s.Append(batchAt("n", "traffic", t0.Add(-time.Second), "e")) // out of order
	if n := s.EvictBefore(t0); n != 2 {
		t.Fatalf("evicted %d readings, want 2 (the cutoff instant itself is kept)", n)
	}
	got := s.QueryRange("traffic", t0.Add(-time.Hour), t0.Add(2*time.Hour))
	if len(got) != 3 || !got[0].Time.Equal(t0) || got[2].SensorID != "c" {
		t.Errorf("after the cut: %+v", got)
	}
	if st := s.Stats(); st.Readings != 3 || st.Series != 1 {
		t.Errorf("stats after the cut = %+v, want 3 readings in 1 series", st)
	}
	for _, id := range []string{"d", "e"} {
		if _, ok := s.Latest(id); !ok {
			t.Errorf("latest of %s was evicted with its history", id)
		}
	}
	if n := s.EvictBefore(t0); n != 0 {
		t.Errorf("repeated cut evicted %d", n)
	}
}

func TestTimeSeriesRejectsInvalidBatch(t *testing.T) {
	s := NewTimeSeries(0)
	if err := s.Append(&model.Batch{}); err == nil {
		t.Error("expected error for invalid batch")
	}
}

func TestTimeSeriesConcurrent(t *testing.T) {
	s := NewTimeSeries(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				at := t0.Add(time.Duration(i*50+j) * time.Second)
				_ = s.Append(batchAt("n", "traffic", at, "s"))
				s.QueryRange("traffic", t0, at)
				s.Latest("s")
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Readings != 400 {
		t.Errorf("readings = %d, want 400", st.Readings)
	}
}

func TestTimeSeriesQuerySortedProperty(t *testing.T) {
	prop := func(offsets []int16) bool {
		s := NewTimeSeries(0)
		for _, off := range offsets {
			at := t0.Add(time.Duration(off) * time.Second)
			if err := s.Append(batchAt("n", "t", at, "s")); err != nil {
				return false
			}
		}
		got := s.QueryRange("t", t0.Add(-10*time.Hour), t0.Add(10*time.Hour))
		if len(got) != len(offsets) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Time.Before(got[i-1].Time) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArchivePutAndIndexes(t *testing.T) {
	a := NewArchive()
	b1 := batchAt("fog1/a", "traffic", t0, "s1", "s2")
	b2 := batchAt("fog1/b", "weather", t0.Add(25*time.Hour), "s3")
	if _, err := a.Put(b1, []string{"fog1/a", "fog2/x", "cloud"}, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put(b2, nil, t0.Add(26*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	if recs := a.ByCategory(model.CategoryUrban); len(recs) != 2 {
		t.Errorf("by category = %d", len(recs))
	}
	if recs := a.Records(); len(recs) != 2 || recs[0].Batch.NodeID != "fog1/a" {
		t.Errorf("records = %+v", recs)
	}
	days := a.Days()
	if len(days) != 2 || days[0] != "2017-06-01" || days[1] != "2017-06-02" {
		t.Errorf("days = %v", days)
	}
	if st := a.Stats(); st.Readings != 3 || st.Series != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestArchiveProvenanceAndCloning(t *testing.T) {
	a := NewArchive()
	b := batchAt("fog1/a", "traffic", t0, "s1")
	prov := []string{"fog1/a", "cloud"}
	rec, err := a.Put(b, prov, t0)
	if err != nil {
		t.Fatal(err)
	}
	prov[0] = "mutated" // archive must have copied provenance
	if rec.Provenance[0] != "fog1/a" {
		t.Error("provenance aliased caller slice")
	}
	// Archive clones batches: mutating the original must not change
	// the archived copy.
	b.Readings[0].Value = 999
	if got := a.Records()[0].Batch.Readings[0].Value; got == 999 {
		t.Error("archive aliased the caller's batch")
	}
}

func TestArchiveRejectsInvalid(t *testing.T) {
	a := NewArchive()
	if _, err := a.Put(&model.Batch{}, nil, t0); err == nil {
		t.Error("expected error")
	}
}

func TestArchiveConcurrent(t *testing.T) {
	a := NewArchive()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				at := t0.Add(time.Duration(i*25+j) * time.Minute)
				_, _ = a.Put(batchAt("n", "traffic", at, "s"), nil, at)
				a.ByCategory(model.CategoryUrban)
				a.Days()
			}
		}(i)
	}
	wg.Wait()
	if a.Len() != 200 {
		t.Errorf("Len = %d, want 200", a.Len())
	}
}

func TestArchiveExpire(t *testing.T) {
	a := NewArchive()
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i*24) * time.Hour)
		if _, err := a.Put(batchAt("n", "traffic", at, "s"), nil, at); err != nil {
			t.Fatal(err)
		}
	}
	// Destroy the first two days.
	if n := a.Expire(t0.Add(48 * time.Hour)); n != 2 {
		t.Fatalf("expired %d records, want 2", n)
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d, want 3", a.Len())
	}
	if got := len(a.ByCategory(model.CategoryUrban)); got != 3 {
		t.Errorf("by category after expire = %d", got)
	}
	if days := a.Days(); len(days) != 3 || days[0] != "2017-06-03" {
		t.Errorf("days after expire = %v", days)
	}
	if st := a.Stats(); st.Readings != 3 {
		t.Errorf("stats after expire = %+v", st)
	}
	// No-op expiry.
	if n := a.Expire(t0); n != 0 {
		t.Errorf("second expire = %d, want 0", n)
	}
}
