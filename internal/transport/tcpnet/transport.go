package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/metrics"
	"f2c/internal/transport"
)

// Options configures a client Transport.
type Options struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// MaxFrame bounds the frame body size either way; zero selects
	// DefaultMaxFrame (the protocol.MaxBatchWireSize-derived bound).
	MaxFrame int
	// Window bounds the payload bytes in flight per peer per traffic
	// class (default 8 MiB). A send that would exceed the window
	// fails fast with a *BackpressureError (unwrapping to
	// transport.ErrBackpressure) instead of queueing goroutines —
	// callers on the flush path keep the batch buffered and retry on
	// their own schedule. A single payload larger than the window is
	// admitted when the window is idle, so one big batch cannot
	// deadlock.
	Window int64
	// Conns is the connection-pool size per peer per class (default
	// 2). Requests are multiplexed over the pool round-robin.
	Conns int
	// Registry receives transport metrics; nil allocates a private
	// one.
	Registry *metrics.Registry
}

func (o *Options) applyDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.Window <= 0 {
		o.Window = 8 << 20
	}
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
}

// window is one traffic class's flow-control budget toward one peer.
type window struct {
	mu    sync.Mutex
	used  int64
	limit int64
}

// tryAcquire admits n payload bytes, or reports false when the
// window is exhausted. An oversized single payload is admitted only
// when the window is idle (min-one semantics, no deadlock).
func (w *window) tryAcquire(n int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.used > 0 && w.used+n > w.limit {
		return false
	}
	w.used += n
	return true
}

func (w *window) release(n int64) {
	w.mu.Lock()
	w.used -= n
	w.mu.Unlock()
}

func (w *window) inflight() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.used
}

// classPool is the per-peer connection pool and flow-control window
// of one traffic class.
type classPool struct {
	win   window
	mu    sync.Mutex
	conns []*clientConn
	next  int
}

// peer is one registered destination endpoint.
type peer struct {
	name    string
	addr    string
	classes [numClasses]classPool
}

// Transport is a persistent-connection TCP transport. Peers are
// registered by node id with AddPeer; each peer gets an independent
// connection pool and flow-control window per traffic class. Safe for
// concurrent use.
type Transport struct {
	opts  Options
	stats *metrics.TransportStats
	reqID atomic.Uint64

	mu     sync.RWMutex
	peers  map[string]*peer
	closed bool
}

// New creates a client transport.
func New(opts Options) *Transport {
	opts.applyDefaults()
	t := &Transport{
		opts:  opts,
		stats: metrics.NewTransportStats(opts.Registry, "transport.", classNames...),
		peers: make(map[string]*peer),
	}
	return t
}

// Stats exposes the transport's metric bundle.
func (t *Transport) Stats() *metrics.TransportStats { return t.stats }

// AddPeer registers the TCP address ("host:port") of an endpoint.
// Connections are dialed lazily on first send.
func (t *Transport) AddPeer(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[name]; ok {
		p.addr = addr
		return
	}
	p := &peer{name: name, addr: addr}
	for c := range p.classes {
		p.classes[c].win.limit = t.opts.Window
	}
	t.peers[name] = p
}

// Close tears down every pooled connection. In-flight calls fail with
// a connection-closed error; subsequent sends fail too.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		for c := range p.classes {
			cp := &p.classes[c]
			cp.mu.Lock()
			conns := cp.conns
			cp.conns = nil
			cp.mu.Unlock()
			for _, conn := range conns {
				if conn != nil {
					conn.shutdown()
				}
			}
		}
	}
	return nil
}

var _ transport.Transport = (*Transport)(nil)

// Send implements transport.Transport. The message's payload buffer
// is never retained: it is fully written to the socket before Send
// returns (or the send fails), so flush-path callers may overwrite
// their seal buffers immediately.
//
// Failure modes map onto the sentinels the delivery machinery already
// understands: an unknown peer is transport.ErrUnknownEndpoint, a
// window-exhausted class is transport.ErrBackpressure (batch stays
// queued, no failover), a handler failure is *transport.RemoteError,
// and connection-level errors (peer down, restart mid-flush) surface
// as plain errors after one transparent retry on a fresh connection —
// the at-least-once path receivers dedupe by delivery sequence.
func (t *Transport) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	t.mu.RLock()
	p, ok := t.peers[msg.To]
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("tcpnet: transport closed")
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrUnknownEndpoint, msg.To)
	}
	kindCode, ok := kindCodes[msg.Kind]
	if !ok {
		return nil, fmt.Errorf("tcpnet: unsupported message kind %q", msg.Kind)
	}
	if len(msg.Payload)+frameSlack > t.opts.MaxFrame {
		return nil, &FrameSizeError{Size: len(msg.Payload), Limit: t.opts.MaxFrame}
	}

	class := ClassOf(msg.Kind)
	cs := t.stats.Class(class.String())
	cp := &p.classes[class]
	n := int64(len(msg.Payload))
	if !cp.win.tryAcquire(n) {
		cs.Backpressure.Inc()
		return nil, &BackpressureError{
			Peer: msg.To, Class: class,
			Inflight: cp.win.inflight(), Window: t.opts.Window,
		}
	}
	cs.InflightBytes.Set(cp.win.inflight())
	cs.QueueDepth.Add(1)
	start := time.Now()
	defer func() {
		cp.win.release(n)
		cs.InflightBytes.Set(cp.win.inflight())
		cs.QueueDepth.Add(-1)
	}()

	// At most two attempts: a round-trip that failed at the
	// connection level (stale pooled conn, peer restart) is retried
	// once on a freshly dialed connection. Remote errors and context
	// cancellation are never retried.
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.conn(p, class, attempt > 0)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: %s -> %s: %w", msg.From, msg.To, err)
		}
		id := t.reqID.Add(1)
		reply, err := conn.roundTrip(ctx, class, id, kindCode, &msg)
		if err == nil {
			cs.FramesSent.Inc()
			cs.RTT.Observe(time.Since(start))
			return reply, nil
		}
		if !errors.Is(err, errConnClosed) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("tcpnet: %s -> %s: %w", msg.From, msg.To, lastErr)
}

// conn returns the next pooled connection for (peer, class), dialing
// replacements for dead slots. reconnect marks dials that replace a
// connection that just failed a round-trip.
func (t *Transport) conn(p *peer, class Class, reconnect bool) (*clientConn, error) {
	cp := &p.classes[class]
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.conns == nil {
		cp.conns = make([]*clientConn, t.opts.Conns)
	}
	cp.next = (cp.next + 1) % len(cp.conns)
	slot := cp.next
	if c := cp.conns[slot]; c != nil && !c.dead() {
		if !reconnect {
			return c, nil
		}
		// The caller just watched a round-trip die; if the pooled conn
		// predates that failure it may be the same broken socket, so
		// replace it.
		c.shutdown()
	}
	c, err := t.dial(p, reconnect)
	if err != nil {
		return nil, err
	}
	cp.conns[slot] = c
	return c, nil
}

func (t *Transport) dial(p *peer, reconnect bool) (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", p.addr, t.opts.DialTimeout)
	if err != nil {
		t.stats.ConnErrors.Inc()
		return nil, fmt.Errorf("dial %s: %w", p.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if _, err := nc.Write(preface[:]); err != nil {
		_ = nc.Close()
		t.stats.ConnErrors.Inc()
		return nil, fmt.Errorf("preface to %s: %w", p.addr, err)
	}
	t.stats.ConnDials.Inc()
	if reconnect {
		t.stats.ConnReconnects.Inc()
	}
	t.stats.ConnActive.Add(1)
	c := newClientConn(p.name, nc, t.opts.MaxFrame, t.stats)
	go c.readLoop()
	return c, nil
}
