package query_test

// Goroutine-leak / hang regressions for the scatter-gather early-
// cancel paths: when the first-useful-result cancellation fires while
// a losing probe is blocked inside a Send that ignores its context,
// the gather must still return promptly, and the abandoned probe's
// goroutine must drain (into the buffered result channel) once the
// transport finally returns — a goleak-style check, hand-rolled since
// the repository carries no external test dependencies.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/query"
	"f2c/internal/transport"
)

// stuckTransport serves query pages and summaries for well-behaved
// endpoints (an empty page for those in the empty set) and blocks —
// deliberately ignoring the context, the worst-behaved transport the
// contract allows — for endpoints in the stuck set, until released.
type stuckTransport struct {
	release chan struct{}
	stuck   map[string]bool
	empty   map[string]bool

	mu      sync.Mutex
	blocked int // sends currently parked in the stuck path
}

func (tr *stuckTransport) Send(_ context.Context, msg transport.Message) ([]byte, error) {
	if tr.stuck[msg.To] {
		tr.mu.Lock()
		tr.blocked++
		tr.mu.Unlock()
		<-tr.release // ignores ctx on purpose: the regression under test
		return nil, errors.New("released late")
	}
	switch msg.Kind {
	case transport.KindQuery:
		if tr.empty[msg.To] {
			return protocol.EncodeQueryPage(msg.To, protocol.QueryPage{})
		}
		now := time.Now()
		page := protocol.QueryPage{Found: true, Readings: []model.Reading{{
			SensorID: "s1", TypeName: "traffic", Category: model.CategoryUrban,
			Time: now, Value: 42,
		}}}
		return protocol.EncodeQueryPage(msg.To, page)
	case transport.KindSummary:
		return protocol.EncodeJSON(protocol.SummaryResponse{
			Summary: aggregate.Summary{Count: 3, Sum: 6, Min: 1, Max: 3},
		})
	default:
		return nil, errors.New("unexpected kind " + string(msg.Kind))
	}
}

func (tr *stuckTransport) blockedSends() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.blocked
}

// waitGoroutines polls until the goroutine count drops back to (or
// below) limit, failing after a generous real-time deadline.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC() // let finished goroutines retire
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d alive, want <= %d", runtime.NumGoroutine(), limit)
}

// TestRangeDetailedNoLeakOnEarlyCancel: one sibling answers, the other
// blocks in a context-ignoring Send. The range must return the winner
// promptly (previously the drain loop blocked on the loser forever),
// and after the transport releases, the abandoned goroutine must exit.
func TestRangeDetailedNoLeakOnEarlyCancel(t *testing.T) {
	tr := &stuckTransport{
		release: make(chan struct{}),
		stuck:   map[string]bool{"fog1/blocked": true},
	}
	eng, err := query.New(query.Config{
		Self:      "fog1/a",
		Transport: tr,
		Siblings:  []string{"fog1/b", "fog1/blocked"},
		CloudID:   "cloud",
		Local:     nopStore{},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	type answer struct {
		res query.RangeResult
		err error
	}
	done := make(chan answer, 1)
	now := time.Now()
	go func() {
		res, err := eng.RangeDetailed(context.Background(), "traffic", now.Add(-time.Minute), now, 100)
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("RangeDetailed: %v", a.err)
		}
		if len(a.res.Readings) != 1 {
			t.Fatalf("RangeDetailed returned %d readings, want 1", len(a.res.Readings))
		}
		if a.res.Source != query.SourceNeighbor {
			t.Fatalf("RangeDetailed source = %s, want %s", a.res.Source, query.SourceNeighbor)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RangeDetailed hung on a loser blocked in Send after early cancel")
	}
	if tr.blockedSends() == 0 {
		t.Fatal("test harness bug: the losing probe never reached the blocking path")
	}

	// Release the stuck Send: the abandoned probe resolves into the
	// buffered channel and its goroutine must retire — nothing leaks.
	close(tr.release)
	waitGoroutines(t, before)
}

// TestRangeDetailedNoHangOnEmptyAndStuckSiblings: one sibling answers
// empty, the other blocks in a context-ignoring Send, so no answer
// ever decides the race. The fan-out must still end at its deadline
// with the stuck sibling counted down, and the walk must go on to the
// cloud, whose readings come back flagged partial.
func TestRangeDetailedNoHangOnEmptyAndStuckSiblings(t *testing.T) {
	tr := &stuckTransport{
		release: make(chan struct{}),
		stuck:   map[string]bool{"fog1/blocked": true},
		empty:   map[string]bool{"fog1/empty": true},
	}
	eng, err := query.New(query.Config{
		Self:          "fog1/a",
		Transport:     tr,
		Siblings:      []string{"fog1/empty", "fog1/blocked"},
		CloudID:       "cloud",
		Local:         nopStore{},
		FanoutTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	type answer struct {
		res query.RangeResult
		err error
	}
	done := make(chan answer, 1)
	now := time.Now()
	go func() {
		res, err := eng.RangeDetailed(context.Background(), "traffic", now.Add(-time.Minute), now, 100)
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("RangeDetailed: %v", a.err)
		}
		if a.res.Source != query.SourceCloud || len(a.res.Readings) != 1 {
			t.Fatalf("RangeDetailed = %d readings from %s, want the cloud's 1", len(a.res.Readings), a.res.Source)
		}
		if !a.res.Partial || len(a.res.Unreachable) != 1 || a.res.Unreachable[0] != "fog1/blocked" {
			t.Fatalf("RangeDetailed Partial=%v Unreachable=%v, want true [fog1/blocked]", a.res.Partial, a.res.Unreachable)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RangeDetailed hung on a sibling blocked in Send past the fan-out deadline")
	}
	if tr.blockedSends() == 0 {
		t.Fatal("test harness bug: the stuck sibling never reached the blocking path")
	}

	close(tr.release)
	waitGoroutines(t, before)
}

// TestRangeDetailedNoHangOnStuckCloud: the single-target tiers are
// bounded like the fan-out. A cloud blocked in a context-ignoring Send
// fails the read at FanoutTimeout, named unreachable, instead of
// holding it; a parent blocked the same way is counted unreachable and
// the walk falls through to the cloud, whose readings come back
// flagged partial. The stuck goroutines drain after release.
func TestRangeDetailedNoHangOnStuckCloud(t *testing.T) {
	for _, tc := range []struct {
		name, stuck, parent string
	}{
		{"cloud", "cloud", ""},
		{"parent", "fog2/blocked", "fog2/blocked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &stuckTransport{release: make(chan struct{}), stuck: map[string]bool{tc.stuck: true}}
			eng, err := query.New(query.Config{
				Self:          "fog1/a",
				Transport:     tr,
				Parent:        tc.parent,
				CloudID:       "cloud",
				Local:         nopStore{},
				FanoutTimeout: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()

			type answer struct {
				res query.RangeResult
				err error
			}
			done := make(chan answer, 1)
			now := time.Now()
			go func() {
				res, err := eng.RangeDetailed(context.Background(), "traffic", now.Add(-time.Minute), now, 100)
				done <- answer{res, err}
			}()
			select {
			case a := <-done:
				if tc.stuck == "cloud" {
					if !errors.Is(a.err, context.DeadlineExceeded) {
						t.Fatalf("RangeDetailed over a stuck cloud: err = %v, want the deadline", a.err)
					}
					break
				}
				if a.err != nil {
					t.Fatalf("RangeDetailed: %v", a.err)
				}
				if a.res.Source != query.SourceCloud || len(a.res.Readings) != 1 {
					t.Fatalf("RangeDetailed = %d readings from %s, want the cloud's 1", len(a.res.Readings), a.res.Source)
				}
				if !a.res.Partial || len(a.res.Unreachable) != 1 || a.res.Unreachable[0] != tc.stuck {
					t.Fatalf("RangeDetailed Partial=%v Unreachable=%v, want true [%s]", a.res.Partial, a.res.Unreachable, tc.stuck)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("RangeDetailed hung on a %s blocked in Send past FanoutTimeout", tc.name)
			}
			if tr.blockedSends() == 0 {
				t.Fatalf("test harness bug: the stuck %s never reached the blocking path", tc.name)
			}

			close(tr.release)
			waitGoroutines(t, before)
		})
	}
}

// TestAggregateDetailedNoLeakOnStuckOwner: one district owner blocks
// in a context-ignoring Send past the fan-out deadline. The gather
// must return at the deadline with the stuck owner counted down (the
// cloud fallback then completes the answer), and the abandoned
// goroutine must drain after release.
func TestAggregateDetailedNoLeakOnStuckOwner(t *testing.T) {
	tr := &stuckTransport{
		release: make(chan struct{}),
		stuck:   map[string]bool{"fog2/blocked": true},
	}
	eng, err := query.New(query.Config{
		Self:          "fog1/a",
		Transport:     tr,
		Districts:     []string{"fog2/ok", "fog2/blocked"},
		CloudID:       "cloud",
		Local:         nopStore{},
		FanoutTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	type answer struct {
		res query.AggregateResult
		err error
	}
	done := make(chan answer, 1)
	now := time.Now()
	go func() {
		res, err := eng.AggregateDetailed(context.Background(), "traffic", now.Add(-time.Minute), now)
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("AggregateDetailed: %v", a.err)
		}
		// The stuck district forced the cloud fallback, which answered.
		if a.res.Source != query.SourceCloud {
			t.Fatalf("AggregateDetailed source = %s, want %s", a.res.Source, query.SourceCloud)
		}
		if a.res.Summary.Count != 3 {
			t.Fatalf("AggregateDetailed count = %d, want 3", a.res.Summary.Count)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AggregateDetailed hung on an owner blocked in Send past the fan-out deadline")
	}
	if tr.blockedSends() == 0 {
		t.Fatal("test harness bug: the stuck owner never reached the blocking path")
	}

	close(tr.release)
	waitGoroutines(t, before)
}

// TestLatestNoHangOnStuckCloud: after a local miss the point read asks
// the cloud. A cloud blocked in a context-ignoring Send fails the read
// at FanoutTimeout instead of holding it, and the stuck goroutine
// drains after release.
func TestLatestNoHangOnStuckCloud(t *testing.T) {
	tr := &stuckTransport{release: make(chan struct{}), stuck: map[string]bool{"cloud": true}}
	eng, err := query.New(query.Config{
		Self: "fog1/a", Transport: tr, CloudID: "cloud", Local: nopStore{},
		FanoutTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := eng.Latest(context.Background(), "s1")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Latest over a stuck cloud: err = %v, want the deadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Latest hung on a cloud blocked in Send past FanoutTimeout")
	}
	if tr.blockedSends() == 0 {
		t.Fatal("test harness bug: the stuck cloud never reached the blocking path")
	}
	close(tr.release)
	waitGoroutines(t, before)
}

// TestAggregateNoHangOnStuckCloud: one district owner and the cloud
// both block in a context-ignoring Send. The cloud fallback fails at
// FanoutTimeout, so AggregateDetailed falls through to the partial
// merge of the district that answered, naming the stuck one, and the
// stuck goroutines drain after release.
func TestAggregateNoHangOnStuckCloud(t *testing.T) {
	tr := &stuckTransport{release: make(chan struct{}), stuck: map[string]bool{"fog2/blocked": true, "cloud": true}}
	eng, err := query.New(query.Config{
		Self: "fog1/a", Transport: tr, Districts: []string{"fog2/ok", "fog2/blocked"}, CloudID: "cloud",
		Local: nopStore{}, FanoutTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	type answer struct {
		res query.AggregateResult
		err error
	}
	done := make(chan answer, 1)
	now := time.Now()
	go func() {
		res, err := eng.AggregateDetailed(context.Background(), "traffic", now.Add(-time.Minute), now)
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("AggregateDetailed: %v", a.err)
		}
		if !a.res.Partial || a.res.Summary.Count != 3 || len(a.res.Missing) != 1 || a.res.Missing[0] != "fog2/blocked" {
			t.Fatalf("AggregateDetailed = %+v, want the partial of fog2/ok missing fog2/blocked", a.res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AggregateDetailed hung on a cloud blocked in Send past FanoutTimeout")
	}
	if tr.blockedSends() < 2 {
		t.Fatal("test harness bug: the stuck owner and cloud never reached the blocking path")
	}
	close(tr.release)
	waitGoroutines(t, before)
}
