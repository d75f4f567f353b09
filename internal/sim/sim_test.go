package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", c.Now(), epoch)
	}
	c.Advance(5 * time.Second)
	if want := epoch.Add(5 * time.Second); !c.Now().Equal(want) {
		t.Errorf("after Advance: %v, want %v", c.Now(), want)
	}
	c.Advance(-time.Hour)
	if want := epoch.Add(5 * time.Second); !c.Now().Equal(want) {
		t.Error("negative Advance must be a no-op")
	}
	c.AdvanceTo(epoch) // in the past
	if want := epoch.Add(5 * time.Second); !c.Now().Equal(want) {
		t.Error("AdvanceTo in the past must be a no-op")
	}
	c.AdvanceTo(epoch.Add(time.Minute))
	if want := epoch.Add(time.Minute); !c.Now().Equal(want) {
		t.Errorf("AdvanceTo: %v, want %v", c.Now(), want)
	}
}

func TestWallClock(t *testing.T) {
	before := time.Now()
	got := WallClock{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("WallClock.Now %v outside [%v, %v]", got, before, after)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(epoch)
	var order []string
	add := func(name string) func(time.Time) {
		return func(time.Time) { order = append(order, name) }
	}
	if err := e.Schedule(epoch.Add(3*time.Second), "c", add("c")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(epoch.Add(1*time.Second), "a", add("a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(epoch.Add(2*time.Second), "b", add("b")); err != nil {
		t.Fatal(err)
	}
	// Same-instant events must run FIFO.
	if err := e.Schedule(epoch.Add(2*time.Second), "b2", add("b2")); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b2", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Processed != 4 {
		t.Errorf("Processed = %d, want 4", e.Processed)
	}
}

func TestEngineHorizonExclusive(t *testing.T) {
	e := NewEngine(epoch)
	ran := 0
	horizon := epoch.Add(10 * time.Second)
	_ = e.Schedule(epoch.Add(9*time.Second), "in", func(time.Time) { ran++ })
	_ = e.Schedule(horizon, "at", func(time.Time) { ran++ })
	_ = e.Schedule(horizon.Add(time.Second), "past", func(time.Time) { ran++ })
	if err := e.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran %d events, want 1 (horizon is exclusive)", ran)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	if err := e.Run(horizon.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Errorf("after a later horizon ran = %d, want 3", ran)
	}
}

func TestEnginePastEventsRunNow(t *testing.T) {
	e := NewEngine(epoch)
	e.Clock().Advance(time.Minute)
	var at time.Time
	_ = e.Schedule(epoch, "past", func(now time.Time) { at = now })
	if err := e.Run(epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !at.Equal(epoch.Add(time.Minute)) {
		t.Errorf("past event ran at %v, want %v", at, epoch.Add(time.Minute))
	}
}

func TestEngineScheduleEvery(t *testing.T) {
	e := NewEngine(epoch)
	var fires []time.Time
	horizon := epoch.Add(50 * time.Second)
	err := e.ScheduleEvery(epoch.Add(5*time.Second), 10*time.Second, horizon, "tick",
		func(now time.Time) { fires = append(fires, now) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(horizon); err != nil {
		t.Fatal(err)
	}
	// 5, 15, 25, 35, 45 => 5 firings.
	if len(fires) != 5 {
		t.Fatalf("fired %d times, want 5 (%v)", len(fires), fires)
	}
	for i, f := range fires {
		want := epoch.Add(time.Duration(5+10*i) * time.Second)
		if !f.Equal(want) {
			t.Errorf("fire %d at %v, want %v", i, f, want)
		}
	}
}

func TestEngineScheduleEveryValidation(t *testing.T) {
	e := NewEngine(epoch)
	if err := e.ScheduleEvery(epoch, 0, epoch.Add(time.Hour), "bad", func(time.Time) {}); err == nil {
		t.Error("expected error for zero interval")
	}
	// First firing at/after horizon schedules nothing.
	if err := e.ScheduleEvery(epoch.Add(time.Hour), time.Second, epoch.Add(time.Hour), "late", func(time.Time) {}); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(epoch)
	ran := 0
	_ = e.Schedule(epoch.Add(time.Second), "a", func(time.Time) { ran++; e.Stop() })
	_ = e.Schedule(epoch.Add(2*time.Second), "b", func(time.Time) { ran++ })
	err := e.Run(epoch.Add(time.Hour))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run err = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if err := e.Schedule(epoch.Add(3*time.Second), "c", func(time.Time) {}); !errors.Is(err, ErrStopped) {
		t.Errorf("Schedule after Stop = %v, want ErrStopped", err)
	}
}

func TestEngineNilHandler(t *testing.T) {
	e := NewEngine(epoch)
	if err := e.Schedule(epoch, "nil", nil); err == nil {
		t.Error("expected error for nil handler")
	}
}

func TestEngineEventsScheduledFromHandlers(t *testing.T) {
	e := NewEngine(epoch)
	depth := 0
	var recurse func(now time.Time)
	recurse = func(now time.Time) {
		depth++
		if depth < 10 {
			_ = e.ScheduleAfter(time.Second, "recurse", recurse)
		}
	}
	_ = e.ScheduleAfter(time.Second, "recurse", recurse)
	if err := e.Run(epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
	if want := epoch.Add(10 * time.Second); !e.Now().Equal(want) {
		t.Errorf("final time %v, want %v", e.Now(), want)
	}
}

func TestEngineChronologicalProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		e := NewEngine(epoch)
		type fired struct {
			at  time.Time
			seq int
		}
		var log []fired
		for i, off := range offsets {
			at := epoch.Add(time.Duration(off) * time.Second)
			seq := i
			if err := e.Schedule(at, "ev", func(now time.Time) {
				log = append(log, fired{at: now, seq: seq})
			}); err != nil {
				return false
			}
		}
		if err := e.Run(epoch.Add(time.Duration(1<<16) * time.Second)); err != nil {
			return false
		}
		if len(log) != len(offsets) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at.Before(log[i-1].at) {
				return false
			}
			// FIFO among same-instant events.
			if log[i].at.Equal(log[i-1].at) && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ScheduleAfter enqueues fn to run d after the current virtual
// instant.
func (e *Engine) ScheduleAfter(d time.Duration, name string, fn func(now time.Time)) error {
	return e.Schedule(e.clock.Now().Add(d), name, fn)
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }
