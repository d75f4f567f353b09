package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/cq"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
)

func echoServer(t *testing.T, name string) (*Server, *Transport) {
	t.Helper()
	h := transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		return append([]byte("echo:"), msg.Payload...), nil
	})
	srv, err := NewServer(name, "127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	tr := New(Options{})
	t.Cleanup(func() { tr.Close() })
	tr.AddPeer(name, srv.Addr())
	return srv, tr
}

func TestRoundTripAllKinds(t *testing.T) {
	var mu sync.Mutex
	var got []transport.Message
	h := transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		mu.Lock()
		got = append(got, transport.Message{
			From: msg.From, To: msg.To, Kind: msg.Kind, Class: msg.Class,
			Payload: append([]byte(nil), msg.Payload...),
		})
		mu.Unlock()
		return []byte("ok:" + string(msg.Kind)), nil
	})
	srv, err := NewServer("fog2/d01", "127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	tr := New(Options{})
	defer tr.Close()
	tr.AddPeer("fog2/d01", srv.Addr())

	kinds := []transport.Kind{
		transport.KindBatch, transport.KindSummary, transport.KindQuery,
		transport.KindControl, transport.KindRelay,
	}
	for i, k := range kinds {
		reply, err := tr.Send(context.Background(), transport.Message{
			From: "fog1/d01-s01", To: "fog2/d01", Kind: k, Class: "urban",
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		})
		if err != nil {
			t.Fatalf("Send %s: %v", k, err)
		}
		if want := "ok:" + string(k); string(reply) != want {
			t.Errorf("reply = %q, want %q", reply, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(kinds) {
		t.Fatalf("server saw %d messages, want %d", len(got), len(kinds))
	}
	for i, m := range got {
		if m.From != "fog1/d01-s01" || m.To != "fog2/d01" || m.Kind != kinds[i] || m.Class != "urban" {
			t.Errorf("message %d metadata = %+v", i, m)
		}
		if want := fmt.Sprintf("payload-%d", i); string(m.Payload) != want {
			t.Errorf("message %d payload = %q, want %q", i, m.Payload, want)
		}
	}
	if ds := tr.Stats().ConnDials.Value(); ds == 0 {
		t.Error("no dials counted")
	}
	// KindBatch rides ingest, KindRelay relay, the rest query — three
	// classes, three connections, each counted once.
	if fs := tr.Stats().Class("ingest").FramesSent.Value(); fs != 1 {
		t.Errorf("ingest frames = %d, want 1", fs)
	}
	if fs := tr.Stats().Class("relay").FramesSent.Value(); fs != 1 {
		t.Errorf("relay frames = %d, want 1", fs)
	}
	if fs := tr.Stats().Class("query").FramesSent.Value(); fs != 3 {
		t.Errorf("query frames = %d, want 3", fs)
	}
}

func TestUnknownPeerAndClosedTransport(t *testing.T) {
	tr := New(Options{})
	_, err := tr.Send(context.Background(), transport.Message{To: "nowhere", Kind: transport.KindQuery})
	if !errors.Is(err, transport.ErrUnknownEndpoint) {
		t.Errorf("unknown peer error = %v", err)
	}
	tr.Close()
	tr.AddPeer("x", "127.0.0.1:1")
	if _, err := tr.Send(context.Background(), transport.Message{To: "x", Kind: transport.KindQuery}); err == nil {
		t.Error("Send on closed transport succeeded")
	}
}

// TestForeignClientRefused: a peer that does not open with the tcpnet
// preface — here an HTTP request, the wire nodes no longer speak — is
// dropped without reaching the handler, counted, and does not disturb
// the listener for real clients.
func TestForeignClientRefused(t *testing.T) {
	srv, tr := echoServer(t, "cloud")
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 64)); err == nil {
		t.Errorf("server answered a foreign client with %d bytes", n)
	}
	if got := srv.Stats().ConnErrors.Value(); got != 1 {
		t.Errorf("server conn errors = %d, want 1", got)
	}
	reply, err := tr.Send(context.Background(), transport.Message{To: "cloud", Kind: transport.KindQuery, Payload: []byte("x")})
	if err != nil || string(reply) != "echo:x" {
		t.Errorf("real client after a foreign one: %q, %v", reply, err)
	}
}

// TestSendDoesNotRetainPayload pins the Transport.Send buffer
// contract: the sealed payload is on the wire before Send returns, so
// the flush path may overwrite its seal buffer immediately.
func TestSendDoesNotRetainPayload(t *testing.T) {
	_, tr := echoServer(t, "fog2/d01")
	buf := make([]byte, 256)
	for i := 0; i < 30; i++ {
		fill := byte('a' + i%26)
		for j := range buf {
			buf[j] = fill
		}
		reply, err := tr.Send(context.Background(), transport.Message{
			From: "fog1/d01-s01", To: "fog2/d01", Kind: transport.KindBatch, Payload: buf,
		})
		if err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		for j := range buf {
			buf[j] = 'X' // clobber the moment Send returns
		}
		want := "echo:" + strings.Repeat(string(fill), len(buf))
		if string(reply) != want {
			t.Fatalf("round %d: payload corrupted in flight (got %q...)", i, reply[:16])
		}
	}
}

// sealedTestBatch seals one generated batch under a frozen delivery
// sequence — the retry path's invariant.
func sealedTestBatch(t *testing.T, seq uint64) []byte {
	t.Helper()
	st, err := model.TypeByName("temperature")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sensor.NewGenerator(sensor.Config{
		Type: st, NodeID: "fog1/d01-s01", Sensors: 10, Seed: 7, Redundancy: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sealer protocol.Sealer
	payload, err := sealer.SealSeq(nil, gen.Next(time.Now()), aggregate.CodecNone, seq)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestPeerRestartAndReceiverDedup exercises the at-least-once story
// over real sockets: a peer restart kills the pooled connections, the
// next send redials transparently, and a frozen-sequence resend of an
// already-accepted batch is absorbed by the receiver's replay filter
// instead of double-ingesting.
func TestPeerRestartAndReceiverDedup(t *testing.T) {
	newReceiver := func() *fognode.Node {
		n, err := fognode.New(fognode.Config{
			Spec: topology.NodeSpec{ID: "fog2/d01", Layer: topology.LayerFog2, Parent: "cloud", Name: "d01"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	receiver := newReceiver()
	srv, err := NewServer("fog2/d01", "127.0.0.1:0", receiver, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr := New(Options{})
	defer tr.Close()
	tr.AddPeer("fog2/d01", addr)

	payload := sealedTestBatch(t, 42)
	msg := transport.Message{
		From: "fog1/d01-s01", To: "fog2/d01", Kind: transport.KindBatch,
		Class: "urban", Payload: payload,
	}
	if _, err := tr.Send(context.Background(), msg); err != nil {
		t.Fatalf("initial send: %v", err)
	}
	if got := receiver.Status().IngestedBatches; got != 1 {
		t.Fatalf("ingested = %d, want 1", got)
	}

	// Restart the peer on the same address: same node instance (its
	// replay filter survives, as a durable node's would via the WAL),
	// fresh process from the transport's point of view.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	srv2, err := NewServer("fog2/d01", addr, receiver, ServerOptions{})
	if err != nil {
		t.Fatalf("server restart: %v", err)
	}
	defer srv2.Close()

	// Resend with the frozen sequence — the retry path after a failed
	// flush. The transport redials (its pooled conns died with the
	// old server); the receiver recognizes the sequence and dedups.
	if _, err := tr.Send(context.Background(), msg); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if got := receiver.Status().IngestedBatches; got != 1 {
		t.Errorf("ingested after duplicate = %d, want 1 (dedup failed)", got)
	}
	if got := receiver.DuplicateBatches(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if dials := tr.Stats().ConnDials.Value(); dials < 2 {
		t.Errorf("dials = %d, want >= 2 (reconnect after restart)", dials)
	}
}

func TestOversizedFrameClientSide(t *testing.T) {
	_, tr := echoServer(t, "fog2/d01")
	tr.opts.MaxFrame = 2048
	_, err := tr.Send(context.Background(), transport.Message{
		From: "a", To: "fog2/d01", Kind: transport.KindBatch, Payload: make([]byte, 4096),
	})
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("error = %v, want *FrameSizeError", err)
	}
	if fse.Limit != 2048 {
		t.Errorf("limit = %d, want 2048", fse.Limit)
	}
	if !strings.Contains(err.Error(), "MaxBatchWireSize") {
		t.Errorf("error text should name the MaxBatchWireSize bound: %q", err)
	}
}

// TestOversizedFrameServerSide: a frame over the receiver's limit is
// answered with an error reply and discarded; the connection — and
// the requests behind it — stay alive.
func TestOversizedFrameServerSide(t *testing.T) {
	h := transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		return []byte("ok"), nil
	})
	srv, err := NewServer("fog2/d01", "127.0.0.1:0", h, ServerOptions{MaxFrame: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A single-conn pool so the dial counter distinguishes a surviving
	// connection from a silent redial.
	tr := New(Options{Conns: 1})
	defer tr.Close()
	tr.AddPeer("fog2/d01", srv.Addr())

	_, err = tr.Send(context.Background(), transport.Message{
		From: "a", To: "fog2/d01", Kind: transport.KindBatch, Payload: make([]byte, 4096),
	})
	var rerr *transport.RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("error = %v, want *transport.RemoteError", err)
	}
	if !strings.Contains(rerr.Msg, "exceeds") {
		t.Errorf("remote error = %q, want a frame-size rejection", rerr.Msg)
	}
	if n := srv.Stats().FramesOversized.Value(); n != 1 {
		t.Errorf("server oversized frames = %d, want 1", n)
	}

	// The connection survived: the next well-sized send must succeed
	// without a redial.
	dialsBefore := tr.Stats().ConnDials.Value()
	if _, err := tr.Send(context.Background(), transport.Message{
		From: "a", To: "fog2/d01", Kind: transport.KindBatch, Payload: []byte("small"),
	}); err != nil {
		t.Fatalf("send after oversized rejection: %v", err)
	}
	if dials := tr.Stats().ConnDials.Value(); dials != dialsBefore {
		t.Errorf("dials went %d -> %d; connection should have survived", dialsBefore, dials)
	}
}

// TestBackpressureFailsFast: with the ingest window held open by a
// slow receiver, further sends return transport.ErrBackpressure
// immediately instead of stacking goroutines behind the window.
func TestBackpressureFailsFast(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	h := transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		// Only the bulk-ingest plane is slow; queries answer instantly
		// (the class-isolation premise).
		if msg.Kind == transport.KindBatch {
			entered <- struct{}{}
			<-release
		}
		return []byte("ok"), nil
	})
	srv, err := NewServer("fog2/d01", "127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := New(Options{Window: 1024})
	defer tr.Close()
	tr.AddPeer("fog2/d01", srv.Addr())

	// Occupy the ingest window: one oversized-for-the-window payload
	// is admitted while idle (min-one, no deadlock) and then pins the
	// window until the slow receiver answers.
	firstDone := make(chan error, 1)
	go func() {
		_, err := tr.Send(context.Background(), transport.Message{
			From: "a", To: "fog2/d01", Kind: transport.KindBatch, Payload: make([]byte, 2048),
		})
		firstDone <- err
	}()
	<-entered

	// Every concurrent send now fails fast with the typed sentinel.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tr.Send(context.Background(), transport.Message{
				From: "a", To: "fog2/d01", Kind: transport.KindBatch, Payload: make([]byte, 512),
			})
		}(i)
	}
	wg.Wait()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("backpressured sends took %v; they must fail fast, not queue", d)
	}
	for i, err := range errs {
		if !errors.Is(err, transport.ErrBackpressure) {
			t.Errorf("send %d error = %v, want ErrBackpressure", i, err)
		}
		var bp *BackpressureError
		if !errors.As(err, &bp) {
			continue
		}
		if bp.Class != ClassIngest || bp.Peer != "fog2/d01" {
			t.Errorf("send %d backpressure detail = %+v", i, bp)
		}
	}
	if n := tr.Stats().Class("ingest").Backpressure.Value(); n != int64(len(errs)) {
		t.Errorf("backpressure counter = %d, want %d", n, len(errs))
	}
	// A query slips through while ingest is saturated: its class has
	// its own window and its own connection.
	if _, err := tr.Send(context.Background(), transport.Message{
		From: "a", To: "fog2/d01", Kind: transport.KindQuery, Payload: []byte("q"),
	}); err != nil {
		t.Errorf("query under ingest backpressure: %v", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Errorf("window-holding send: %v", err)
	}
}

// TestFognodeDefersOnBackpressure pins the backpressure-is-not-failure
// contract end to end: a fog node whose parent window is exhausted
// counts a deferred flush and keeps the batch queued — no parent
// failure, no sibling failover.
func TestFognodeDefersOnBackpressure(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := transport.HandlerFunc(func(_ context.Context, msg transport.Message) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return []byte("ok"), nil
	})
	srv, err := NewServer("fog2/d01", "127.0.0.1:0", h, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := New(Options{Window: 256})
	defer tr.Close()
	tr.AddPeer("fog2/d01", srv.Addr())

	node, err := fognode.New(fognode.Config{
		Spec:      topology.NodeSpec{ID: "fog1/d01-s01", Layer: topology.LayerFog1, Parent: "fog2/d01", Name: "s01"},
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := model.TypeByName("temperature")
	gen, err := sensor.NewGenerator(sensor.Config{
		Type: st, NodeID: "fog1/d01-s01", Sensors: 50, Seed: 3, Redundancy: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Ingest(gen.Next(time.Now())); err != nil {
		t.Fatal(err)
	}

	// Exhaust the parent's ingest window with a slow-receiver send.
	holdDone := make(chan struct{})
	go func() {
		defer close(holdDone)
		_, _ = tr.Send(context.Background(), transport.Message{
			From: "x", To: "fog2/d01", Kind: transport.KindBatch, Payload: make([]byte, 512),
		})
	}()
	<-entered

	// The flush must defer — quickly, quietly, and without failover.
	if err := node.Flush(context.Background()); err != nil {
		t.Fatalf("backpressured flush returned %v, want nil (deferred)", err)
	}
	if n := node.DeferredFlushes(); n == 0 {
		t.Error("deferred flushes = 0, want > 0")
	}
	if n := node.RelayedBatches(); n != 0 {
		t.Errorf("relayed batches = %d, want 0 (backpressure must not trigger failover)", n)
	}

	// Release the window; the queued batch delivers on the next flush
	// with its frozen sequence.
	close(release)
	<-holdDone
	if err := node.Flush(context.Background()); err != nil {
		t.Fatalf("post-release flush: %v", err)
	}
	if n := node.Status().PendingBatches; n != 0 {
		t.Errorf("pending batches = %d after window release, want 0", n)
	}
}

// TestAlertPushCrossesRealSockets: a fog layer-1 node with a firing
// window subscription delivers every alert it fires to a cloud over
// real sockets — the alert push kind has a wire code and rides the
// ingest stream — and the flush that carries it succeeds.
func TestAlertPushCrossesRealSockets(t *testing.T) {
	clock := sim.NewVirtualClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC))
	cl, err := cloud.New(cloud.Config{ID: "cloud", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("cloud", "127.0.0.1:0", cl, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := New(Options{})
	defer tr.Close()
	tr.AddPeer("cloud", srv.Addr())
	if got := ClassOf(transport.KindAlertPush); got != ClassIngest {
		t.Errorf("alert pushes ride the %s stream, want ingest like transport.ClassNameOf says", got)
	}

	node, err := fognode.New(fognode.Config{
		Spec:      topology.NodeSpec{ID: "fog1/d01-s01", Layer: topology.LayerFog1, Parent: "cloud", Name: "s01"},
		Clock:     clock,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Subscribe(cq.Subscription{ID: "w", TypeName: "temperature", Kind: cq.KindWindow, Window: time.Minute}); err != nil {
		t.Fatal(err)
	}
	st, _ := model.TypeByName("temperature")
	gen, err := sensor.NewGenerator(sensor.Config{Type: st, NodeID: "edge", Sensors: 5, Seed: 3, Redundancy: -1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := node.Ingest(gen.Next(clock.Now())); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
		if err := node.Flush(context.Background()); err != nil {
			t.Fatalf("flush carrying an alert push: %v", err)
		}
	}
	fired, archived := node.AlertsFired(), int64(len(cl.AlertInstances()))
	if fired != 3 || archived != fired {
		t.Errorf("fired %d alerts, cloud archived %d, want 3 and 3", fired, archived)
	}
	if n := node.PendingBatches(); n != 0 {
		t.Errorf("%d delivery units still pending", n)
	}
}
