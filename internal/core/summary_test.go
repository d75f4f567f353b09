package core

import (
	"context"
	"testing"
	"time"

	"f2c/internal/aggregate"
)

// TestHierarchicalSummaryLossless drives data into several sections
// across both districts and checks the decomposability chain through
// the query engine: the requester's aggregate and the merge of every
// district's partial both equal the summary of the readings the cloud
// archived.
func TestHierarchicalSummaryLossless(t *testing.T) {
	s := newSystem(t, Options{Codec: aggregate.CodecNone})
	ctx := context.Background()
	ids := s.Fog1IDs()

	vals := []float64{10, 20, 30, 40, 50}
	for i, v := range vals {
		node := ids[i%len(ids)]
		b := tempBatch("sensor-"+node, v, t0.Add(time.Duration(i)*time.Minute))
		if err := s.IngestAt(node, b); err != nil {
			t.Fatal(err)
		}
	}
	// Move everything to fog2 (and on to the cloud).
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}

	from, to := t0.Add(-time.Hour), t0.Add(time.Hour)
	want := aggregate.Summarize(s.Cloud().Historical("temperature", from, to))
	if want.Count != int64(len(vals)) || want.Avg() != 30 || want.Min != 10 || want.Max != 50 {
		t.Fatalf("archived summary = %+v", want)
	}

	eng := s.QueryEngine(ids[0])
	city, _, err := eng.Aggregate(ctx, "temperature", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if city != want {
		t.Errorf("engine aggregate %+v != archived %+v", city, want)
	}

	// District partials, each one constant-size message, merge to the
	// same figure.
	merged := aggregate.Summary{}
	for _, f2 := range s.Fog2IDs() {
		partial, err := eng.SummaryFrom(ctx, f2, "temperature", from, to)
		if err != nil {
			t.Fatal(err)
		}
		merged = merged.Merge(partial)
	}
	if merged != want {
		t.Errorf("district merge %+v != archived %+v", merged, want)
	}
}

// TestCitySummaryViaNetwork: a fog1 requester's engine asks for the
// city-wide aggregate over the network, and the cloud answers a
// summary request directly; both equal the summary of the archive.
func TestCitySummaryViaNetwork(t *testing.T) {
	s := newSystem(t, Options{Codec: aggregate.CodecNone})
	ctx := context.Background()
	ids := s.Fog1IDs()
	for i, v := range []float64{5, 15, 25} {
		_ = s.IngestAt(ids[i%len(ids)], tempBatch("n"+ids[i%len(ids)], v, t0.Add(time.Duration(i)*time.Minute)))
	}
	if err := s.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	from, to := t0.Add(-time.Hour), t0.Add(time.Hour)
	local := aggregate.Summarize(s.Cloud().Historical("temperature", from, to))
	eng := s.QueryEngine(ids[0])
	viaNet, _, err := eng.Aggregate(ctx, "temperature", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if viaNet != local {
		t.Errorf("network summary %+v != local %+v", viaNet, local)
	}
	if viaNet.Count != 3 || viaNet.Avg() != 15 {
		t.Errorf("summary = %+v", viaNet)
	}
	// The cloud answers summary requests too.
	cloudSum, err := eng.SummaryFrom(ctx, s.Cloud().ID(), "temperature", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if cloudSum != local {
		t.Errorf("cloud remote summary %+v != %+v", cloudSum, local)
	}
}

// TestSectionSummary: a fog1 node answers a summary request over its
// own temporal store.
func TestSectionSummary(t *testing.T) {
	s := newSystem(t, Options{})
	ids := s.Fog1IDs()
	_ = s.IngestAt(ids[0], tempBatch("a", 12, t0))
	_ = s.IngestAt(ids[0], tempBatch("b", 18, t0))
	sum, err := s.QueryEngine(ids[1]).SummaryFrom(context.Background(), ids[0], "temperature", t0.Add(-time.Minute), t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 2 || sum.Avg() != 15 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestSummaryUnknownNodes(t *testing.T) {
	s := newSystem(t, Options{})
	eng := s.QueryEngine(s.Fog1IDs()[0])
	for _, id := range []string{"fog1/nope", "fog2/nope"} {
		if _, err := eng.SummaryFrom(context.Background(), id, "temperature", t0, t0); err == nil {
			t.Errorf("summary from %s: expected error", id)
		}
	}
}

func TestRemoteSummaryErrors(t *testing.T) {
	s := newSystem(t, Options{})
	ctx := context.Background()
	eng := s.QueryEngine("x")
	if _, err := eng.SummaryFrom(ctx, "nowhere", "temperature", t0, t0); err == nil {
		t.Error("unknown target must fail")
	}
	// Invalid request rejected by the remote handler.
	if _, err := eng.SummaryFrom(ctx, s.Fog1IDs()[0], "", t0, t0); err == nil {
		t.Error("empty type must fail")
	}
}
