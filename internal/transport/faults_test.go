package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func okHandler(calls *atomic.Int64) Handler {
	return HandlerFunc(func(context.Context, Message) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		return []byte("ok"), nil
	})
}

func mustSendErr(t *testing.T, net *SimNetwork, from, to string) error {
	t.Helper()
	_, err := net.Send(context.Background(), Message{From: from, To: to, Kind: KindBatch})
	return err
}

// TestPartitionAndHeal checks directed partitions: a -> b fails with
// ErrPartitioned while b -> a still delivers, and healing restores the
// link.
func TestPartitionAndHeal(t *testing.T) {
	net := NewSimNetwork()
	net.Register("a", okHandler(nil))
	net.Register("b", okHandler(nil))

	net.Partition("a", "b")
	if err := mustSendErr(t, net, "a", "b"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned send = %v, want ErrPartitioned", err)
	}
	if err := mustSendErr(t, net, "b", "a"); err != nil {
		t.Fatalf("reverse direction must stay healthy, got %v", err)
	}
	net.Heal("a", "b")
	if err := mustSendErr(t, net, "a", "b"); err != nil {
		t.Fatalf("healed send = %v", err)
	}

	net.PartitionBoth("a", "b")
	if err := mustSendErr(t, net, "b", "a"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("PartitionBoth reverse = %v, want ErrPartitioned", err)
	}
	net.HealAll()
	if err := mustSendErr(t, net, "a", "b"); err != nil {
		t.Fatalf("HealAll did not restore the link: %v", err)
	}
}

// TestCrashAndRestart checks node churn: messages to or from a
// crashed node fail with ErrNodeDown, restart restores both.
func TestCrashAndRestart(t *testing.T) {
	var delivered atomic.Int64
	net := NewSimNetwork()
	net.Register("a", okHandler(nil))
	net.Register("b", okHandler(&delivered))

	net.Crash("b")
	if err := mustSendErr(t, net, "a", "b"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send to crashed = %v, want ErrNodeDown", err)
	}
	if err := mustSendErr(t, net, "b", "a"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send from crashed = %v, want ErrNodeDown", err)
	}
	if delivered.Load() != 0 {
		t.Fatal("crashed node received a message")
	}
	net.Restart("b")
	if err := mustSendErr(t, net, "a", "b"); err != nil {
		t.Fatalf("send after restart = %v", err)
	}
}

// TestReplyLossDeliversButFails is the at-least-once hazard: with
// reply loss at probability 1, the handler runs (the receiver
// processed the message) yet the sender sees ErrDropped.
func TestReplyLossDeliversButFails(t *testing.T) {
	var delivered atomic.Int64
	net := NewSimNetwork(WithSeed(7))
	net.Register("b", okHandler(&delivered))

	net.SetReplyLoss("a", "b", 1)
	err := mustSendErr(t, net, "a", "b")
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("reply-lost send = %v, want ErrDropped", err)
	}
	if delivered.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (delivery precedes reply loss)", delivered.Load())
	}
	net.SetReplyLoss("a", "b", 0)
	if err := mustSendErr(t, net, "a", "b"); err != nil {
		t.Fatalf("send after clearing reply loss = %v", err)
	}
}

// TestExtraLatencyObserved checks that an injected latency spike
// delays an emulated send by at least the spike.
func TestExtraLatencyObserved(t *testing.T) {
	const spike = 30 * time.Millisecond
	net := NewSimNetwork(WithLatencyEmulation(true))
	net.Register("b", okHandler(nil))
	net.SetExtraLatency("a", "b", spike)
	start := time.Now()
	if err := mustSendErr(t, net, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < spike {
		t.Errorf("send took %v under a %v spike", took, spike)
	}
}

// PartitionBoth severs both directions between a and b.
func (n *SimNetwork) PartitionBoth(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}
