package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"f2c/internal/cq"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
)

// TestStandingQueries10x is the continuous-query headline: the same
// alerting function — "tell the city when a corridor jams, and
// summarise speeds hourly" — costs at least 10x fewer WAN bytes as
// standing subscriptions evaluated on the fog layer-1 ingest path
// (only fired alerts cross fog2->cloud) than as a cloud-side service
// polling every section's current window aggregate once a minute over
// the summary wire path. Two cities take the same seeded workload;
// what the subscribed city moves over fog2->cloud beyond the polled
// city's identical reading traffic is the alerts' whole cost.
func TestStandingQueries10x(t *testing.T) {
	const (
		hours    = 3
		window   = 5 * time.Minute
		jamSpeed = 12.0
	)
	ctx := context.Background()
	newCity := func() (*System, *sim.VirtualClock) {
		clock := sim.NewVirtualClock(t0)
		return newSystem(t, Options{Clock: clock, Dedup: true, Quality: true}), clock
	}
	subscribed, subClock := newCity()
	polled, pollClock := newCity()
	for _, sub := range []cq.Subscription{
		{ID: "jam-alarm", TypeName: "traffic", Kind: cq.KindThreshold, Window: window, Predicate: cq.PredBelow, Threshold: jamSpeed},
		{ID: "speed-hourly", TypeName: "traffic", Kind: cq.KindWindow, Window: time.Hour},
	} {
		if err := subscribed.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
	}

	poll := func(now time.Time) {
		req, err := protocol.EncodeJSON(protocol.SummaryRequest{
			TypeName: "traffic", FromUnix: now.Truncate(window).UnixNano(), ToUnix: now.UnixNano(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range polled.Fog1IDs() {
			if _, err := polled.Network().Send(ctx, transport.Message{
				From: CloudID, To: sec, Kind: transport.KindSummary, Class: transport.ClassQuery, Payload: req,
			}); err != nil {
				t.Fatalf("poll %s: %v", sec, err)
			}
		}
	}

	// Day-shaped speeds with seeded jam episodes (4-9 minutes at crawl
	// speed), one reading per section per minute.
	rng := rand.New(rand.NewSource(3))
	sections := subscribed.Fog1IDs()
	jamLeft := make([]int, len(sections))
	for m := 0; m < hours*60; m++ {
		at := t0.Add(time.Duration(m) * time.Minute)
		subClock.AdvanceTo(at)
		pollClock.AdvanceTo(at)
		poll(at)
		for i, sec := range sections {
			v := 40 + 8*math.Sin(2*math.Pi*float64(m%60)/60) + 6*rng.Float64()
			if jamLeft[i] > 0 {
				jamLeft[i]--
				v = 6 + 5*rng.Float64()
			} else if rng.Float64() < 0.012 {
				jamLeft[i] = 4 + rng.Intn(6)
			}
			for _, s := range []*System{subscribed, polled} {
				b := &model.Batch{
					NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: at,
					Readings: []model.Reading{{
						SensorID: sec + "/loop-1", TypeName: "traffic", Category: model.CategoryUrban,
						Time: at, Value: v, Unit: "km/h",
					}},
				}
				if err := s.IngestAt(sec, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if (m+1)%15 == 0 {
			for _, s := range []*System{subscribed, polled} {
				if err := s.FlushAll(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Close the last windows and drain fog1 -> fog2 -> cloud.
	end := t0.Add(hours*time.Hour + 2*time.Hour)
	subClock.AdvanceTo(end)
	pollClock.AdvanceTo(end)
	for i := 0; i < 2; i++ {
		for _, s := range []*System{subscribed, polled} {
			if err := s.FlushAll(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	var threshold, windows int
	for _, a := range subscribed.Cloud().AlertInstances() {
		if a.Kind == protocol.AlertKindThreshold {
			threshold++
		} else {
			windows++
		}
	}
	if threshold == 0 || windows == 0 {
		t.Fatalf("the workload fired %d jam alarms and %d hourly summaries: both must engage", threshold, windows)
	}
	alertBytes := subscribed.Matrix().Bytes(metrics.HopFog2ToCloud) - polled.Matrix().Bytes(metrics.HopFog2ToCloud)
	pollBytes := polled.Matrix().BytesByClass(metrics.HopDownlink, transport.ClassQuery)
	if alertBytes <= 0 || pollBytes < 10*alertBytes {
		t.Errorf("standing queries moved %d WAN bytes, polling %d: want >= 10x fewer (got %.1fx)",
			alertBytes, pollBytes, float64(pollBytes)/float64(alertBytes))
	}
	t.Logf("WAN bytes for %d jam alarms + %d hourly summaries over %dh: standing queries %d vs polling %d (%.1fx)",
		threshold, windows, hours, alertBytes, pollBytes, float64(pollBytes)/float64(alertBytes))
}
