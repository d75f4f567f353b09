package core

// Race-focused coverage for the parallel FlushAll/Start/Close paths.
// Meaningful under `go test -race` (CI runs it that way), with
// conservation assertions that catch lost updates regardless.

import (
	"context"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sim"
)

// TestParallelFlushAllRace drives every fog layer-1 node from its own
// goroutine while other goroutines run FlushAll and reads, then
// checks every ingested reading reached the cloud exactly once.
func TestParallelFlushAllRace(t *testing.T) {
	s := newSystem(t, Options{Codec: aggregate.CodecNone})
	ctx := context.Background()
	ids := s.Fog1IDs()
	const perNode = 100

	var wg sync.WaitGroup
	for ni, id := range ids {
		wg.Add(1)
		go func(ni int, id string) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				at := t0.Add(time.Duration(ni*perNode+i) * time.Millisecond)
				b := &model.Batch{
					NodeID: "edge", TypeName: "temperature", Category: model.CategoryEnergy, Collected: at,
					Readings: []model.Reading{{
						SensorID: id + "/s", TypeName: "temperature", Category: model.CategoryEnergy,
						Time: at, Value: 5 + float64(i%30), Unit: "C",
					}},
				}
				if err := s.IngestAt(id, b); err != nil {
					t.Errorf("ingest at %s: %v", id, err)
					return
				}
			}
		}(ni, id)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.FlushAll(ctx); err != nil {
					t.Errorf("concurrent FlushAll: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	aux.Add(1)
	go func() {
		defer aux.Done()
		local, _ := s.Fog1(ids[0])
		eng := s.QueryEngine(ids[0])
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = local.Latest(ids[0] + "/s")
				_, _, _ = eng.LatestFrom(ctx, s.Cloud().ID(), ids[1]+"/s")
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()

	if err := s.FlushAll(ctx); err != nil {
		t.Fatalf("final FlushAll: %v", err)
	}
	archived := archivedReadings(s, "temperature")
	want := int64(len(ids) * perNode)
	if archived != want {
		t.Errorf("archived %d readings, ingested %d: parallel drain lost or duplicated data", archived, want)
	}
}

// TestParallelStartCloseRace exercises the parallel Start/Close paths
// under concurrent ingest on a wall clock.
func TestParallelStartCloseRace(t *testing.T) {
	s := newSystem(t, Options{
		Clock:             sim.WallClock{}, // wall clock drives the background flushers
		Fog1FlushInterval: 5 * time.Millisecond,
		Fog2FlushInterval: 5 * time.Millisecond,
		Codec:             aggregate.CodecNone,
	})
	s.Start()
	s.Start() // idempotent under concurrency guards
	ids := s.Fog1IDs()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < 50; i++ {
				b := &model.Batch{
					NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: now,
					Readings: []model.Reading{{
						SensorID: id + "/loop", TypeName: "traffic", Category: model.CategoryUrban,
						Time: now.Add(time.Duration(i) * time.Millisecond), Value: float64(i % 100), Unit: "km/h",
					}},
				}
				if err := s.IngestAt(id, b); err != nil {
					t.Errorf("ingest at %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	archived := archivedReadings(s, "traffic")
	want := int64(len(ids) * 50)
	if archived != want {
		t.Errorf("archived %d readings, ingested %d: Close drain incomplete", archived, want)
	}
}
