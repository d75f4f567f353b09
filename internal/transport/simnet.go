package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"f2c/internal/metrics"
)

// LinkProfile models a network segment.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth in bytes/second; 0 means unconstrained.
	Bandwidth int64
	// Loss is the message-drop probability in [0,1).
	Loss float64
}

// TransferTime returns the one-way time to move n bytes over the
// link.
func (p LinkProfile) TransferTime(n int64) time.Duration {
	d := p.Latency
	if p.Bandwidth > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(p.Bandwidth) * float64(time.Second))
	}
	return d
}

// Default link profiles for the three F2C segments plus the
// centralized baseline's direct WAN path. Values follow the paper's
// qualitative ordering (fog close and fast, cloud far and slow) with
// magnitudes typical for municipal networks.
var (
	// EdgeLink is sensor -> fog layer 1 (same-area radio/LAN).
	EdgeLink = LinkProfile{Latency: 2 * time.Millisecond, Bandwidth: 12_500_000}
	// MetroLink is fog layer 1 -> fog layer 2 (district fiber).
	MetroLink = LinkProfile{Latency: 8 * time.Millisecond, Bandwidth: 125_000_000}
	// WANLink is fog layer 2 -> cloud.
	WANLink = LinkProfile{Latency: 40 * time.Millisecond, Bandwidth: 125_000_000}
	// CellularLink is the centralized baseline's sensor -> cloud
	// path (3G/4G in the paper's Fig. 3).
	CellularLink = LinkProfile{Latency: 60 * time.Millisecond, Bandwidth: 6_250_000}
)

// SimNetwork is an in-process Transport with per-pair link profiles,
// deterministic loss, optional real-time latency emulation, and
// traffic accounting. Safe for concurrent use.
type SimNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]Handler
	links     map[[2]string]LinkProfile
	def       LinkProfile
	// rngMu guards only the loss draws, so lossless sends (the common
	// case on the now-concurrent flush path) never serialize on it.
	rngMu   sync.Mutex
	rng     *rand.Rand
	matrix  *metrics.TrafficMatrix
	hopOf   func(from, to string) metrics.Hop
	emulate bool
	// faults is the injected-failure state (partitions, crashes,
	// latency spikes, reply loss, scheduled events); nil until fault
	// injection is first configured, and inert while nil. See
	// faults.go.
	faults *faultPlane
}

// SimOption configures a SimNetwork.
type SimOption func(*SimNetwork)

// WithSeed makes loss decisions deterministic.
func WithSeed(seed int64) SimOption {
	return func(n *SimNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithDefaultLink sets the profile used when no explicit link exists.
func WithDefaultLink(p LinkProfile) SimOption {
	return func(n *SimNetwork) { n.def = p }
}

// WithTrafficMatrix records per-hop traffic. hopOf maps an endpoint
// pair to the accounting hop; nil disables accounting.
func WithTrafficMatrix(m *metrics.TrafficMatrix, hopOf func(from, to string) metrics.Hop) SimOption {
	return func(n *SimNetwork) {
		n.matrix = m
		n.hopOf = hopOf
	}
}

// WithLatencyEmulation makes Send sleep for the modeled round-trip
// time, so wall-clock benchmarks observe realistic latency ordering
// between fog and cloud paths.
func WithLatencyEmulation(enabled bool) SimOption {
	return func(n *SimNetwork) { n.emulate = enabled }
}

// NewSimNetwork creates an empty simulated network.
func NewSimNetwork(opts ...SimOption) *SimNetwork {
	n := &SimNetwork{
		endpoints: make(map[string]Handler),
		links:     make(map[[2]string]LinkProfile),
		rng:       rand.New(rand.NewSource(1)),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Register attaches a handler under the endpoint name, replacing any
// previous registration.
func (n *SimNetwork) Register(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[name] = h
}

// Deregister detaches an endpoint and its link profiles — a node
// leaving the elastic topology. In-flight sends that already resolved
// the handler complete; later sends fail with ErrUnknownEndpoint.
func (n *SimNetwork) Deregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, name)
	for pair := range n.links {
		if pair[0] == name || pair[1] == name {
			delete(n.links, pair)
		}
	}
}

// SetLink installs a directional link profile between two endpoints.
func (n *SimNetwork) SetLink(from, to string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = p
}

// Link returns the effective profile for a pair.
func (n *SimNetwork) Link(from, to string) LinkProfile {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if p, ok := n.links[[2]string{from, to}]; ok {
		return p
	}
	return n.def
}

var _ Transport = (*SimNetwork)(nil)

// Send implements Transport: it models the uplink transfer, invokes
// the destination handler synchronously, and models the reply
// transfer. When a fault plane is active it is consulted first:
// scheduled events due at the fault clock's now are applied, then
// crashes and partitions fail the send before any delivery, and an
// injected reply-loss fault can fail the send after the handler ran
// (the at-least-once failure mode receivers must dedupe).
func (n *SimNetwork) Send(ctx context.Context, msg Message) ([]byte, error) {
	n.mu.RLock()
	h, ok := n.endpoints[msg.To]
	faults := n.faults
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEndpoint, msg.To)
	}
	extraUp, extraDown, replyLoss, err := faults.admit(msg.From, msg.To)
	if err != nil {
		return nil, err
	}
	link := n.Link(msg.From, msg.To)

	if link.Loss > 0 {
		n.rngMu.Lock()
		lost := n.rng.Float64() < link.Loss
		n.rngMu.Unlock()
		if lost {
			return nil, fmt.Errorf("%w: %s -> %s", ErrDropped, msg.From, msg.To)
		}
	}

	if n.matrix != nil && n.hopOf != nil {
		n.matrix.Record(n.hopOf(msg.From, msg.To), msg.Class, msg.WireSize())
	}

	uplink := link.TransferTime(msg.WireSize()) + extraUp
	if n.emulate {
		select {
		case <-time.After(uplink):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	reply, err := h.Handle(ctx, msg)
	if err != nil {
		return nil, &RemoteError{Endpoint: msg.To, Msg: err.Error()}
	}

	// Account the reply on the reverse hop: query responses carry the
	// data volume (pages of readings), so counting only requests
	// would hide most of the read path's traffic.
	if n.matrix != nil && n.hopOf != nil {
		n.matrix.Record(n.hopOf(msg.To, msg.From), msg.Class, WireSizeOf(len(reply)))
	}

	// Injected reply loss: the handler ran — the receiver processed
	// the message — but the acknowledgement never makes it back. The
	// sender must treat this as failure and retry; only receiver-side
	// dedup keeps the retry from double-counting.
	if replyLoss > 0 {
		n.rngMu.Lock()
		lost := n.rng.Float64() < replyLoss
		n.rngMu.Unlock()
		if lost {
			return nil, fmt.Errorf("%w: reply %s -> %s", ErrDropped, msg.To, msg.From)
		}
	}

	downlink := link.TransferTime(int64(len(reply))) + extraDown
	if n.emulate {
		select {
		case <-time.After(downlink):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return reply, nil
}
