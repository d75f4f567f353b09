package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"f2c/internal/metrics"
)

func echoHandler(prefix string) Handler {
	return HandlerFunc(func(_ context.Context, msg Message) ([]byte, error) {
		return []byte(prefix + string(msg.Payload)), nil
	})
}

func TestSimNetworkDelivery(t *testing.T) {
	n := NewSimNetwork()
	n.Register("fog2/x", echoHandler("ack:"))
	reply, err := n.Send(context.Background(), Message{
		From: "fog1/a", To: "fog2/x", Kind: KindBatch, Class: "energy", Payload: []byte("hello"),
	})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if string(reply) != "ack:hello" {
		t.Errorf("reply = %q", reply)
	}
}

func TestSimNetworkUnknownEndpoint(t *testing.T) {
	n := NewSimNetwork()
	_, err := n.Send(context.Background(), Message{To: "nowhere"})
	if !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("err = %v, want ErrUnknownEndpoint", err)
	}
}

func TestSimNetworkRemoteError(t *testing.T) {
	n := NewSimNetwork()
	n.Register("bad", HandlerFunc(func(context.Context, Message) ([]byte, error) {
		return nil, errors.New("boom")
	}))
	_, err := n.Send(context.Background(), Message{To: "bad"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Endpoint != "bad" || !strings.Contains(remote.Msg, "boom") {
		t.Errorf("remote = %+v", remote)
	}
}

func TestSimNetworkLoss(t *testing.T) {
	n := NewSimNetwork(WithSeed(7))
	n.Register("dst", echoHandler(""))
	n.SetLink("src", "dst", LinkProfile{Loss: 0.5})
	var dropped, delivered int
	for i := 0; i < 200; i++ {
		_, err := n.Send(context.Background(), Message{From: "src", To: "dst"})
		switch {
		case errors.Is(err, ErrDropped):
			dropped++
		case err == nil:
			delivered++
		default:
			t.Fatalf("unexpected err: %v", err)
		}
	}
	if dropped < 70 || dropped > 130 {
		t.Errorf("dropped = %d of 200, want ~100", dropped)
	}
	if dropped+delivered != 200 {
		t.Errorf("accounting mismatch: %d + %d", dropped, delivered)
	}
}

func TestSimNetworkTrafficAccounting(t *testing.T) {
	m := metrics.NewTrafficMatrix()
	n := NewSimNetwork(WithTrafficMatrix(m, func(from, to string) metrics.Hop {
		return metrics.HopFog1ToFog2
	}))
	n.Register("dst", echoHandler(""))
	payload := []byte("0123456789")
	if _, err := n.Send(context.Background(), Message{From: "src", To: "dst", Class: "noise", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	// Both directions are accounted: the request and the echoed reply
	// (this hopOf maps the reverse hop onto the same segment).
	want := WireSizeOf(len(payload)) + WireSizeOf(len(payload))
	if got := m.BytesByClass(metrics.HopFog1ToFog2, "noise"); got != want {
		t.Errorf("accounted = %d, want %d", got, want)
	}
}

func TestLinkProfileTransferTime(t *testing.T) {
	p := LinkProfile{Latency: 10 * time.Millisecond, Bandwidth: 1000}
	// 500 bytes at 1000 B/s = 500ms + 10ms latency.
	if got, want := p.TransferTime(500), 510*time.Millisecond; got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	unconstrained := LinkProfile{Latency: time.Millisecond}
	if got := unconstrained.TransferTime(1 << 30); got != time.Millisecond {
		t.Errorf("unconstrained TransferTime = %v", got)
	}
}

func TestSimNetworkLatencyEmulation(t *testing.T) {
	n := NewSimNetwork(WithLatencyEmulation(true))
	n.Register("dst", echoHandler(""))
	n.SetLink("src", "dst", LinkProfile{Latency: 20 * time.Millisecond})
	start := time.Now()
	if _, err := n.Send(context.Background(), Message{From: "src", To: "dst"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("emulated round trip took %v, want >= 40ms", elapsed)
	}
}

func TestSimNetworkEmulationRespectsContext(t *testing.T) {
	n := NewSimNetwork(WithLatencyEmulation(true))
	n.Register("dst", echoHandler(""))
	n.SetLink("src", "dst", LinkProfile{Latency: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := n.Send(ctx, Message{From: "src", To: "dst"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestSimNetworkDefaultLink(t *testing.T) {
	n := NewSimNetwork(WithDefaultLink(LinkProfile{Latency: 5 * time.Millisecond}))
	if got := n.Link("a", "b").Latency; got != 5*time.Millisecond {
		t.Errorf("default link latency = %v", got)
	}
	n.SetLink("a", "b", LinkProfile{Latency: time.Millisecond})
	if got := n.Link("a", "b").Latency; got != time.Millisecond {
		t.Errorf("explicit link latency = %v", got)
	}
	// Directionality: reverse pair still uses default.
	if got := n.Link("b", "a").Latency; got != 5*time.Millisecond {
		t.Errorf("reverse link latency = %v", got)
	}
}

func TestSimNetworkConcurrentSends(t *testing.T) {
	n := NewSimNetwork()
	var handled atomic.Int64
	n.Register("dst", HandlerFunc(func(_ context.Context, msg Message) ([]byte, error) {
		handled.Add(1)
		return msg.Payload, nil
	}))
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := n.Send(context.Background(), Message{From: "src", To: "dst", Payload: []byte("x")}); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := handled.Load(); got != 1600 {
		t.Errorf("handled = %d, want 1600", got)
	}
}

func TestMessageWireSize(t *testing.T) {
	m := Message{Payload: make([]byte, 100)}
	if got := m.WireSize(); got != 132 {
		t.Errorf("WireSize = %d, want 132", got)
	}
}
