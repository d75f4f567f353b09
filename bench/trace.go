package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/transport"
)

// span is one timed call into a layer's public function, recorded
// from outside the layer. Times are nanoseconds since the tracer's
// epoch on the process's monotonic clock; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// linkKey identifies a message in flight between a traced Send and
// the traced Handle it causes on the far side of the socket. Sealed
// v2 envelopes carry their delivery sequence in the header, so a
// batch is matched exactly by (origin, seq); everything else is
// matched first-in first-out per (from, to, kind), which is exact as
// long as one sender has one such message in flight per peer — true
// of the closed-loop senders and the single query client.
type linkKey struct {
	from, to string
	kind     transport.Kind
	seq      uint64
}

// tracer keeps every span in memory until the workload ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span // spans[id-1]
	pending map[linkKey][]uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), pending: make(map[linkKey][]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent uint64) uint64 {
	start := t.now()
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start})
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id uint64, bytes int64) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

// offer announces a send span as the parent of the handler span its
// message will cause; claim (handler side) takes the oldest offer.
func (t *tracer) offer(k linkKey, id uint64) {
	t.mu.Lock()
	t.pending[k] = append(t.pending[k], id)
	t.mu.Unlock()
}

func (t *tracer) claim(k linkKey) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.pending[k]
	if len(q) == 0 {
		return 0
	}
	id := q[0]
	if len(q) == 1 {
		delete(t.pending, k)
	} else {
		t.pending[k] = q[1:]
	}
	return id
}

// retract withdraws an offer nobody claimed (the send failed before
// reaching a handler).
func (t *tracer) retract(k linkKey, id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.pending[k]
	for i, v := range q {
		if v == id {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.pending, k)
	} else {
		t.pending[k] = q
	}
}

// window returns copies of the finished spans that started inside
// [from, to] (tracer nanoseconds).
func (t *tracer) window(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End != 0 && s.Start >= from && s.Start <= to {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// envelopeSeq reads the delivery sequence of a sealed v2 batch
// envelope (magic, version 2, codec, then the 8-byte big-endian
// sequence) without opening the payload; 0 for anything else.
func envelopeSeq(payload []byte) uint64 {
	if len(payload) < 11 || payload[0] != 0xF2 || payload[1] != 2 {
		return 0
	}
	return binary.BigEndian.Uint64(payload[3:11])
}

func keyOf(msg *transport.Message) linkKey {
	k := linkKey{from: msg.From, to: msg.To, kind: msg.Kind}
	if msg.Kind == transport.KindBatch {
		k.seq = envelopeSeq(msg.Payload)
	}
	return k
}

func isRead(k transport.Kind) bool {
	return k == transport.KindQuery || k == transport.KindSummary
}

// tracedTransport times every Send of one owner (a fog node's upward
// transport, or the load client's) from outside tcpnet.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	// batchSpan names upward batch sends ("tcpnet.fog1_fog2.send");
	// reads are "tcpnet.query.send", anything else is otherSpan.
	batchSpan, otherSpan string
	// current is the owner's running flush (nodes) or query (client)
	// span, the parent of the sends it causes; batch sends of the
	// load client have no cause inside the process and are roots.
	current   *atomic.Uint64
	rootBatch bool
}

var _ transport.Transport = (*tracedTransport)(nil)

func (tt *tracedTransport) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	name, parent := tt.batchSpan, tt.current.Load()
	switch {
	case isRead(msg.Kind):
		name = spanQuerySend
	case msg.Kind != transport.KindBatch:
		name = tt.otherSpan
	case tt.rootBatch:
		parent = 0
	}
	id := tt.t.begin(name, parent)
	k := keyOf(&msg)
	tt.t.offer(k, id)
	reply, err := tt.inner.Send(ctx, msg)
	bytes := int64(len(msg.Payload))
	if isRead(msg.Kind) {
		bytes = int64(len(reply))
	}
	tt.t.end(id, bytes)
	if err != nil {
		tt.t.retract(k, id)
	}
	return reply, err
}

// tracedHandler times every Handle of one node from outside it; the
// span covers admission wait, decode and the node's own work.
type tracedHandler struct {
	inner transport.Handler
	t     *tracer
	// Span names by message kind, under the node's layer prefix
	// ("fognode.fog1", "fognode.fog2", "cloud").
	ingest, query, other string
}

var _ transport.Handler = (*tracedHandler)(nil)

func newTracedHandler(inner transport.Handler, t *tracer, layer string) *tracedHandler {
	return &tracedHandler{
		inner: inner, t: t,
		ingest: layer + ".handle_ingest", query: layer + ".handle_query", other: layer + ".handle_other",
	}
}

func (th *tracedHandler) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	name := th.other
	switch {
	case msg.Kind == transport.KindBatch:
		name = th.ingest
	case isRead(msg.Kind):
		name = th.query
	}
	id := th.t.begin(name, th.t.claim(keyOf(&msg)))
	reply, err := th.inner.Handle(ctx, msg)
	th.t.end(id, int64(len(msg.Payload)))
	return reply, err
}

const spanQuerySend = "tcpnet.query.send"

// isRootSpan reports whether a span name is one the benchmark starts
// on its own account: a driven flush, an edge send, a query.
func isRootSpan(name string) bool {
	return strings.HasSuffix(name, ".flush") || name == edgeHop || strings.HasPrefix(name, "query.")
}

// spanTree indexes a set of spans for self-time arithmetic.
type spanTree struct {
	children map[uint64][]span
}

func buildTree(spans []span) *spanTree {
	tr := &spanTree{children: make(map[uint64][]span)}
	for _, s := range spans {
		if s.Parent != 0 {
			tr.children[s.Parent] = append(tr.children[s.Parent], s)
		}
	}
	return tr
}

// covered is the part of a span's interval its children cover: the
// length of the union of the child intervals clipped to the span.
func (tr *spanTree) covered(s span) time.Duration {
	kids := tr.children[s.ID]
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(total)
}

// self is a span's duration minus the part its children cover.
func (tr *spanTree) self(s span) time.Duration { return s.dur() - tr.covered(s) }

// firstChild returns the first child of s with the given name.
func (tr *spanTree) firstChild(s span, name string) (span, bool) {
	for _, c := range tr.children[s.ID] {
		if c.Name == name {
			return c, true
		}
	}
	return span{}, false
}

// treeTotals walks the tree under root and returns the sum of every
// span's self time and the time that parallel children double-cover
// (sum of the child durations inside the parent minus their union,
// per parent). With every child nested in its parent, self - parallel
// equals the root's duration exactly; a child leaking outside its
// parent breaks the equality by the leaked amount, which is what the
// check looks for.
func (tr *spanTree) treeTotals(root span) (self, parallel time.Duration) {
	stack := []span{root}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cov := tr.covered(s)
		self += s.dur() - cov
		var kidsDur time.Duration // clipped to s, like cov
		for _, c := range tr.children[s.ID] {
			if lo, hi := max(c.Start, s.Start), min(c.End, s.End); hi > lo {
				kidsDur += time.Duration(hi - lo)
			}
			stack = append(stack, c)
		}
		parallel += kidsDur - cov
	}
	return self, parallel
}

// treeHealth counts the spans that break the tree: non-root names
// without a parent (a handler whose send was never matched), and
// trees whose self times do not add up to the root within 1 %.
func (tr *spanTree) treeHealth(spans []span) (orphans, badTrees int) {
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		if !isRootSpan(s.Name) {
			orphans++
			continue
		}
		self, par := tr.treeTotals(s)
		diff := self - par - s.dur()
		if diff < 0 {
			diff = -diff
		}
		if diff > s.dur()/100 {
			badTrees++
		}
	}
	return orphans, badTrees
}
