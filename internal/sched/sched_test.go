package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"f2c/internal/metrics"
	"f2c/internal/sim"
)

// TestTokenBucketDeterminism replays the same sequence of instants
// twice and asserts identical take/deny decisions — the bucket's state
// is a pure function of the instants it is shown.
func TestTokenBucketDeterminism(t *testing.T) {
	run := func() []bool {
		base := time.Unix(1000, 0)
		b := NewTokenBucket(10, 20, base) // 10 tokens/s, capacity 20, starts full
		var got []bool
		got = append(got, b.Take(base, 15))                           // 20 -> 5
		got = append(got, b.Take(base, 10))                           // 5 < 10: deny
		got = append(got, b.Take(base.Add(500*time.Millisecond), 10)) // 5+5 = 10: take -> 0
		got = append(got, b.Take(base.Add(600*time.Millisecond), 2))  // 1 < 2: deny
		got = append(got, b.Take(base.Add(5*time.Second), 20))        // capped at 20: take
		got = append(got, b.Take(base.Add(5*time.Second), 1))         // 0 < 1: deny
		return got
	}
	want := []bool{true, false, true, false, true, false}
	for round := 0; round < 2; round++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d step %d: got %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

func TestTokenBucketWaitFor(t *testing.T) {
	base := time.Unix(0, 0)
	b := NewTokenBucket(100, 100, base)
	if !b.Take(base, 100) {
		t.Fatal("full bucket should grant its capacity")
	}
	if w := b.WaitFor(50); w != 500*time.Millisecond {
		t.Fatalf("WaitFor(50) at rate 100/s = %v, want 500ms", w)
	}
	// Oversized costs are capped at capacity, so the wait is bounded.
	if w := b.WaitFor(1e9); w != time.Second {
		t.Fatalf("oversized WaitFor = %v, want 1s (capacity/rate)", w)
	}
}

// admitLabeled queues admissions one at a time (each from its own
// goroutine, confirmed enqueued before the next starts) and returns a
// channel that yields labels in grant order plus releases each grant
// as soon as it is recorded.
func admitLabeled(t *testing.T, s *Scheduler, specs []struct {
	class string
	label string
	cost  int64
}) <-chan string {
	t.Helper()
	order := make(chan string, len(specs))
	for _, sp := range specs {
		sp := sp
		before := s.Queued(sp.class)
		go func() {
			release, err := s.Admit(context.Background(), sp.class, sp.cost)
			if err != nil {
				t.Errorf("admit %s: %v", sp.label, err)
				return
			}
			order <- sp.label
			release()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.Queued(sp.class) <= before {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %s never enqueued", sp.label)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return order
}

// TestWeightedFairOrder pins the stride-scheduling grant order: with
// ingest weight 1 and query weight 4 at equal cost, a backlog of
// 3+3 drains i1, q1, q2, q3, i2, i3 — the first grant goes to ingest
// on the lexicographic tie-break, then queries spend their 4x share.
func TestWeightedFairOrder(t *testing.T) {
	s := New(Options{
		Concurrency: 1,
		Classes: map[string]ClassOptions{
			"ingest": {Weight: 1},
			"query":  {Weight: 4},
		},
	}, sim.WallClock{}, metrics.NewRegistry(), "test.")

	// Hold the only slot via a third class so every admission below
	// queues while ingest and query still start at the same pass.
	blockerRelease, err := s.Admit(context.Background(), "relay", 1)
	if err != nil {
		t.Fatal(err)
	}

	order := admitLabeled(t, s, []struct {
		class string
		label string
		cost  int64
	}{
		{"ingest", "i1", 100}, {"ingest", "i2", 100}, {"ingest", "i3", 100},
		{"query", "q1", 100}, {"query", "q2", 100}, {"query", "q3", 100},
	})

	blockerRelease()
	want := []string{"i1", "q1", "q2", "q3", "i2", "i3"}
	for i, w := range want {
		select {
		case got := <-order:
			if got != w {
				t.Fatalf("grant %d: got %s, want %s", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d (%s) never arrived", i, w)
		}
	}
}

// TestQueryNotStarved floods one node's scheduler with a deep ingest
// backlog and asserts a late-arriving query is granted near the front
// of the line — the weighted queue, not arrival order, decides.
func TestQueryNotStarved(t *testing.T) {
	s := New(DefaultOptions(), sim.WallClock{}, metrics.NewRegistry(), "test.")
	s.opts.Concurrency = 1

	blockerRelease, err := s.Admit(context.Background(), "ingest", 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]struct {
		class string
		label string
		cost  int64
	}, 0, 41)
	for i := 0; i < 40; i++ {
		specs = append(specs, struct {
			class string
			label string
			cost  int64
		}{"ingest", "ingest", 4096})
	}
	specs = append(specs, struct {
		class string
		label string
		cost  int64
	}{"query", "query", 64})
	order := admitLabeled(t, s, specs)

	blockerRelease()
	pos := -1
	for i := 0; i < len(specs); i++ {
		select {
		case got := <-order:
			if got == "query" {
				pos = i
			}
		case <-time.After(5 * time.Second):
			t.Fatal("backlog never drained")
		}
		if pos >= 0 {
			break
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("query granted at position %d behind a 40-deep ingest backlog; want within the first 3 grants", pos)
	}
}

// TestQueueOverflowRejects asserts the fail-fast path: once a class's
// waiter queue is at its limit, further admissions return
// ErrOverloaded immediately instead of queueing.
func TestQueueOverflowRejects(t *testing.T) {
	s := New(Options{
		Concurrency: 1,
		Classes:     map[string]ClassOptions{"ingest": {QueueLimit: 2}},
	}, sim.WallClock{}, metrics.NewRegistry(), "test.")
	release, err := s.Admit(context.Background(), "ingest", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for i := 0; i < 2; i++ {
		go func() {
			r, err := s.Admit(context.Background(), "ingest", 1)
			if err == nil {
				defer r()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued("ingest") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never enqueued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := s.Admit(context.Background(), "ingest", 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow admission: got %v, want ErrOverloaded", err)
	}
}

// TestRateLimitVirtualClock drives a rate-limited class on a virtual
// clock: a blocked admission is granted exactly when the advanced
// clock has refilled the bucket, with no wall-time dependence.
func TestRateLimitVirtualClock(t *testing.T) {
	clock := sim.NewVirtualClock(time.Unix(2000, 0))
	s := New(Options{
		Concurrency: 4,
		Classes:     map[string]ClassOptions{"ingest": {Rate: 10, Burst: 10}},
	}, clock, metrics.NewRegistry(), "test.")

	r1, err := s.Admit(context.Background(), "ingest", 10)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r2, err := s.Admit(context.Background(), "ingest", 10)
		if err == nil {
			r2()
		}
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued("ingest") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second admission never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("second admission granted with an empty bucket")
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(time.Second) // refills 10 tokens
	r1()                       // release triggers a dispatch pass at the new instant
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second admission not granted after refill")
	}
}

// TestAdmitContextCancel asserts a queued waiter abandons cleanly.
func TestAdmitContextCancel(t *testing.T) {
	s := New(Options{Concurrency: 1}, sim.WallClock{}, metrics.NewRegistry(), "test.")
	release, err := s.Admit(context.Background(), "ingest", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx, "ingest", 1)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued("ingest") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	if got := s.Queued("ingest"); got != 0 {
		t.Fatalf("cancelled waiter left %d queued", got)
	}
}

// Queued reports how many admissions are currently waiting on a class.
func (s *Scheduler) Queued(class string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.classes[class]; ok {
		return len(cs.waiters)
	}
	return 0
}
