package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"f2c/internal/metrics"
	"f2c/internal/transport"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// MaxFrame bounds accepted frame bodies; zero selects
	// DefaultMaxFrame. An oversized frame is answered with an error
	// reply and its body discarded — the connection stays alive.
	MaxFrame int
	// MaxInflight bounds the handler goroutines dispatched per server
	// *per traffic class* (default 256); further requests of that
	// class wait for a slot, which TCP flow-control propagates to
	// senders as backpressure. The bound is per class so a saturated
	// bulk-ingest stream queueing behind slow handlers cannot block
	// the query stream's read loop — the server-side half of class
	// isolation.
	MaxInflight int
	// Registry receives server-side transport metrics; nil allocates
	// a private one.
	Registry *metrics.Registry
}

func (o *ServerOptions) applyDefaults() {
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
}

// Server accepts tcpnet connections and dispatches decoded request
// frames to a transport.Handler (a fog node or the cloud). Requests
// are handled concurrently — bounded by MaxInflight — and replies are
// written back on the originating connection, matched by request id.
type Server struct {
	name    string
	handler transport.Handler
	opts    ServerOptions
	stats   *metrics.TransportStats

	ln   net.Listener
	sem  [numClasses]chan struct{} // per-class dispatch slots
	bufs sync.Pool                 // request frame bodies, recycled after dispatch

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server delivering to handler and starts
// accepting on addr ("host:port"; ":0" picks a free port — see Addr).
func NewServer(name, addr string, handler transport.Handler, opts ServerOptions) (*Server, error) {
	opts.applyDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	s := &Server{
		name:    name,
		handler: handler,
		opts:    opts,
		stats:   metrics.NewTransportStats(opts.Registry, "transport.server.", classNames...),
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
	}
	for i := range s.sem {
		s.sem[i] = make(chan struct{}, opts.MaxInflight)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats exposes the server's metric bundle.
func (s *Server) Stats() *metrics.TransportStats { return s.stats }

// Close stops accepting, closes every connection and waits for
// connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.stats.ConnActive.Add(1)
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// serverConn is the per-connection write side shared by the dispatch
// goroutines of that connection.
type serverConn struct {
	nc net.Conn
	// wmu serializes reply frames; scratch is the reused header
	// buffer (replies are header + payload, written separately, so
	// the write path allocates nothing in steady state).
	wmu     sync.Mutex
	bw      *bufio.Writer
	scratch []byte
}

func (sc *serverConn) writeReply(frameType byte, class Class, id uint64, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.scratch = appendReplyFrame(sc.scratch[:0], frameType, class, id, len(payload))
	if _, err := sc.bw.Write(sc.scratch); err != nil {
		return err
	}
	if _, err := sc.bw.Write(payload); err != nil {
		return err
	}
	return sc.bw.Flush()
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		_ = nc.Close()
		s.stats.ConnActive.Add(-1)
	}()

	br := bufio.NewReaderSize(nc, 64<<10)
	var pre [len(preface)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != preface {
		s.stats.ConnErrors.Inc()
		return
	}
	s.stats.ConnDials.Inc()

	sc := &serverConn{nc: nc, bw: bufio.NewWriterSize(nc, 64<<10)}
	// Dispatch goroutines borrow the connection; wait for them before
	// the deferred close so replies never race a closed socket.
	var dispatches sync.WaitGroup
	defer dispatches.Wait()

	var hdr [lenPrefixSize + frameFixedHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.stats.ConnErrors.Inc()
			}
			return
		}
		frameLen := int(binary.BigEndian.Uint32(hdr[:lenPrefixSize]))
		frameType := hdr[lenPrefixSize]
		class := Class(hdr[lenPrefixSize+1])
		id := binary.BigEndian.Uint64(hdr[lenPrefixSize+2:])
		if frameLen < frameFixedHeader {
			s.stats.ConnErrors.Inc()
			return // unrecoverable: cannot trust stream framing
		}
		bodyLen := frameLen - frameFixedHeader
		if frameLen > s.opts.MaxFrame {
			// Oversized: reject loudly but keep the connection — the
			// stream stays framed because the length prefix tells us
			// exactly how much to discard.
			s.stats.FramesOversized.Inc()
			ferr := &FrameSizeError{Size: frameLen, Limit: s.opts.MaxFrame}
			if err := sc.writeReply(frameError, class, id, []byte(ferr.Error())); err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, br, int64(bodyLen)); err != nil {
				return
			}
			continue
		}
		if frameType != frameRequest {
			s.stats.ConnErrors.Inc()
			return // clients only send requests; anything else is desync
		}

		body := s.getBuf(bodyLen)
		if _, err := io.ReadFull(br, body); err != nil {
			s.putBuf(body)
			s.stats.ConnErrors.Inc()
			return
		}
		s.stats.FramesReceived.Inc()
		s.stats.FrameBytesReceived.Add(int64(lenPrefixSize + frameLen))

		// Block on this class's slots only: an ingest stream waiting
		// out slow handlers must not stall the query stream's read
		// loop.
		if class >= numClasses {
			class = ClassQuery // unknown class rides the read stream
		}
		s.sem[class] <- struct{}{}
		dispatches.Add(1)
		go s.dispatch(&dispatches, sc, class, id, body)
	}
}

// dispatch decodes one request body, runs the handler and writes the
// reply. It owns body (a pooled buffer) and recycles it afterwards —
// the handler must not retain the payload, which is the same contract
// the in-process transports impose on handlers.
func (s *Server) dispatch(wg *sync.WaitGroup, sc *serverConn, class Class, id uint64, body []byte) {
	defer func() {
		<-s.sem[class]
		s.putBuf(body)
		wg.Done()
	}()

	cs := s.stats.Class(class.String())
	var msg transport.Message
	if err := parseRequestBody(body, &msg); err != nil {
		_ = sc.writeReply(frameError, class, id, []byte(err.Error()))
		return
	}
	reply, err := s.handler.Handle(context.Background(), msg)
	if err != nil {
		_ = sc.writeReply(frameError, class, id, []byte(err.Error()))
		return
	}
	if err := sc.writeReply(frameReply, class, id, reply); err != nil {
		return
	}
	s.stats.FramesSent.Inc()
	s.stats.FrameBytesSent.Add(int64(lenPrefixSize + frameFixedHeader + len(reply)))
	cs.FramesReceived.Inc()
}

// Pooled request-body buffers. Buffers are length-set on get and
// recycled whole; tiny and huge requests share the pool, so cap
// retention of pathological sizes.
const maxPooledBuf = 1 << 20

func (s *Server) getBuf(n int) []byte {
	if v := s.bufs.Get(); v != nil {
		b := v.([]byte)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (s *Server) putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	s.bufs.Put(b[:0]) //nolint:staticcheck // slice, not pointer: acceptable here
}
