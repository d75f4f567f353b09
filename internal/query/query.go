// Package query implements the hierarchical read path of the F2C
// architecture — the dissemination half of the SCC-DLC (paper §IV.C).
// An Engine plans and executes federated queries over the three-tier
// hierarchy:
//
//   - a tier-routing planner orders fog layer 1 (local store, then
//     siblings), fog layer 2 (parent district) and the cloud, pruning
//     tiers whose retention window cannot contain the requested range;
//   - a scatter-gather executor fans out to sibling fog nodes
//     concurrently with a context deadline and cancels the remaining
//     probes as soon as the first useful result arrives;
//   - range scans stream in bounded binary pages (protocol.QueryPage,
//     the sealed-batch wire path) instead of one unbounded response;
//   - aggregate queries (count/mean/min/max over a type range) are
//     pushed down to the tier owning the range: partials are computed
//     where the data lives and merged at the requester, so only
//     summary-sized payloads cross the WAN.
package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
)

// Source names a tier of the hierarchy: the one a plan step consults,
// or the one that answered a query.
type Source string

// The tiers, lowest first (the order a plan probes them in).
const (
	SourceLocal    Source = "local"
	SourceNeighbor Source = "neighbor"
	SourceParent   Source = "parent"
	SourceCloud    Source = "cloud"
)

// loserDrainGrace bounds how long a decided scatter-gather waits for
// its cancelled losers to resolve so their failures can be reported.
// Well-behaved probes resolve in microseconds after the cancel; only
// a transport that ignores its context outlives this.
const loserDrainGrace = 100 * time.Millisecond

// LocalStore is the in-process store of the node an Engine acts for.
// fognode.Node implements it; a pure network client leaves it nil.
type LocalStore interface {
	// QueryPage serves one bounded page of a range read.
	QueryPage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error)
	// Latest serves the real-time point read.
	Latest(sensorID string) (model.Reading, bool)
}

// Config wires an Engine into the hierarchy, all topology knowledge
// reduced to plain endpoint names so the package stays independent of
// the topology layer.
type Config struct {
	// Self is the requesting endpoint name (the From of every
	// message the engine sends).
	Self string
	// Transport reaches the other tiers.
	Transport transport.Transport
	// Clock provides "now" for retention-window pruning (virtual in
	// simulations). Nil selects the wall clock.
	Clock sim.Clock
	// Fog1Retention and Fog2Retention are the deployment's temporal
	// windows, used to prune tiers that cannot hold a range. Zero
	// selects the repository defaults (1h / 24h).
	Fog1Retention time.Duration
	Fog2Retention time.Duration
	// Siblings are the fog layer-1 neighbors to scatter-gather over
	// (empty disables the neighbor tier).
	Siblings []string
	// Parent is the fog layer-2 node above Self (empty disables the
	// parent tier).
	Parent string
	// Districts are all fog layer-2 endpoints, the owner set for
	// aggregate push-down over recent windows (empty routes
	// aggregates straight to the cloud).
	Districts []string
	// CloudID is the cloud endpoint (default "cloud").
	CloudID string
	// Local is Self's in-process store, consulted before any network
	// hop; nil for pure clients.
	Local LocalStore
	// PageLimit bounds the readings requested per response page
	// (default protocol.DefaultPageLimit).
	PageLimit int
	// FanoutTimeout bounds each scatter-gather round and each remote
	// page of a range walk (default 2s).
	FanoutTimeout time.Duration
	// PreferNeighbor is the §IV.C cost-model hook deciding whether a
	// miss of estBytes is cheaper to fetch from a sibling than from
	// the parent; nil always tries siblings first.
	PreferNeighbor func(estBytes int64) bool
}

func (c *Config) applyDefaults() error {
	if c.Transport == nil {
		return errors.New("query: config needs a transport")
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	if c.Fog1Retention <= 0 {
		c.Fog1Retention = time.Hour
	}
	if c.Fog2Retention < c.Fog1Retention {
		c.Fog2Retention = 24 * time.Hour
	}
	if c.CloudID == "" {
		c.CloudID = "cloud"
	}
	if c.PageLimit <= 0 {
		c.PageLimit = protocol.DefaultPageLimit
	}
	if c.FanoutTimeout <= 0 {
		c.FanoutTimeout = 2 * time.Second
	}
	return nil
}

// Engine executes hierarchical queries for one requester. Safe for
// concurrent use.
type Engine struct {
	cfg Config
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Step is one planned probe.
type Step struct {
	// Source is the tier the step consults.
	Source Source
	// Targets are the endpoints this step consults (empty for
	// SourceLocal).
	Targets []string
	// Authoritative marks a step whose empty-but-successful result is
	// final within the requester's data domain: the tier's retention
	// window contains the whole range and the tier combines
	// everything the requester's own branch of the hierarchy holds,
	// so walking higher would not find the branch's data. An empty
	// result from an authoritative tier stops the walk instead of
	// falling through. Note the domain is the branch, not the city:
	// the parent district combines only its own children, matching
	// the paper's policy of serving a section's reads from the lowest
	// layer of its branch — cross-district reads go through the
	// aggregate push-down (which gathers every district) or a direct
	// cloud query (Engine.RangeFrom).
	Authoritative bool
}

// PlanRange orders the tiers a range query over [from, to] must
// consult, relative to now. A fog tier is probed when its retention
// window *overlaps* the range — it may hold at least the fresh slice,
// including readings not yet flushed upward — and pruned when the
// whole range predates the window, where probing would waste a round
// trip (the pre-refactor serial fallback probed every tier
// regardless). A tier is authoritative only when its window
// *contains* the whole range: then nothing above it can hold more,
// and its empty answer ends the walk. The local store is always
// consulted first when present — it is free.
func (e *Engine) PlanRange(now, from, to time.Time, estBytes int64) []Step {
	var steps []Step
	if e.cfg.Local != nil {
		steps = append(steps, Step{Source: SourceLocal})
	}
	overlapsFog1 := !to.Before(now.Add(-e.cfg.Fog1Retention))
	overlapsFog2 := !to.Before(now.Add(-e.cfg.Fog2Retention))
	containsFog2 := !from.Before(now.Add(-e.cfg.Fog2Retention))
	if overlapsFog1 && len(e.cfg.Siblings) > 0 && (e.cfg.PreferNeighbor == nil || e.cfg.PreferNeighbor(estBytes)) {
		steps = append(steps, Step{Source: SourceNeighbor, Targets: e.cfg.Siblings})
	}
	if overlapsFog2 && e.cfg.Parent != "" {
		// The parent combines everything its children flushed; when
		// its window contains the range it is the district's backstop
		// (recency bounded by the child flush interval, as before the
		// refactor). When the range extends past the window the
		// parent can only answer partially, so an empty answer falls
		// through to the cloud.
		steps = append(steps, Step{Source: SourceParent, Targets: []string{e.cfg.Parent}, Authoritative: containsFog2})
	}
	steps = append(steps, Step{Source: SourceCloud, Targets: []string{e.cfg.CloudID}, Authoritative: true})
	return steps
}

// RangeResult is the full answer of a federated range query.
type RangeResult struct {
	Readings []model.Reading
	// Source is the tier that produced the answer.
	Source Source
	// Partial marks an answer produced while part of the hierarchy
	// was unreachable: a tier (or fan-out target) that was planned
	// before the answering tier failed, so fresher or additional
	// readings may exist behind the failure. A partition therefore
	// degrades a federated read instead of failing it — but callers
	// are told.
	Partial bool
	// Unreachable lists the endpoints that failed during the walk
	// ("local" for the in-process store).
	Unreachable []string
}

// Range executes a federated range query: the planned tiers are
// probed lowest-first and the first useful (non-empty) result is
// returned with its source. An authoritative tier that answers empty
// ends the walk — "tier cannot hold range" falls through, "tier
// authoritative for range but empty" does not. A tier that fails
// (network, remote error) falls through to the next; the last error
// is returned only if no tier could answer. Callers that need to
// know whether a partition degraded the answer use RangeDetailed.
func (e *Engine) Range(ctx context.Context, typeName string, from, to time.Time, estBytes int64) ([]model.Reading, Source, error) {
	res, err := e.RangeDetailed(ctx, typeName, from, to, estBytes)
	if err != nil {
		return nil, "", err
	}
	return res.Readings, res.Source, nil
}

// RangeDetailed is Range with partition visibility: the result's
// Partial flag is set when any tier consulted before the answering
// one was unreachable, and Unreachable names the failed endpoints.
func (e *Engine) RangeDetailed(ctx context.Context, typeName string, from, to time.Time, estBytes int64) (RangeResult, error) {
	steps := e.PlanRange(e.cfg.Clock.Now(), from, to, estBytes)
	var res RangeResult
	var errs []error
	for _, st := range steps {
		var readings []model.Reading
		var down []string
		var err error
		switch st.Source {
		case SourceLocal:
			if readings, err = readAll(e.localPages(typeName, from, to), "", nil); err != nil {
				down = []string{"local"}
			}
		case SourceNeighbor:
			readings, down, err = e.fanOutRange(ctx, st.Targets, typeName, from, to)
		default:
			if readings, err = e.RangeFrom(ctx, st.Targets[0], typeName, from, to); err != nil {
				down = st.Targets[:1]
			}
		}
		res.Unreachable = append(res.Unreachable, down...)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if len(readings) > 0 || st.Authoritative {
			res.Readings, res.Source, res.Partial = readings, st.Source, len(res.Unreachable) > 0
			return res, nil
		}
	}
	if len(errs) > 0 {
		return RangeResult{}, fmt.Errorf("query: all tiers failed: %w", errors.Join(errs...))
	}
	return res, nil
}

// RangeFrom walks a paged range scan against one endpoint until the
// cursor is exhausted. No response materializes more than the page
// limit of readings, and FanoutTimeout bounds each page's round trip.
func (e *Engine) RangeFrom(ctx context.Context, target, typeName string, from, to time.Time) ([]model.Reading, error) {
	return readAll(e.remotePages(ctx, target, typeName, from, to), "", nil)
}

// RangePages streams a paged range scan against one endpoint,
// invoking fn with each page as it arrives, so callers (CLIs,
// exporters) can process a scan larger than memory page by page. A
// non-nil error from fn stops the walk and is returned.
func (e *Engine) RangePages(ctx context.Context, target, typeName string, from, to time.Time, fn func(page protocol.QueryPage) error) error {
	return walkPages(e.remotePages(ctx, target, typeName, from, to), "", fn)
}

// pageSource is one place a range read pages through: the local store
// or a remote endpoint.
type pageSource struct {
	// fetch returns the page that starts at cursor.
	fetch func(cursor string) (protocol.QueryPage, error)
	// target is the remote endpoint paged ("" for the local store).
	target string
}

// localPages pages through Self's in-process store (free, no hop).
func (e *Engine) localPages(typeName string, from, to time.Time) pageSource {
	return pageSource{
		fetch: func(cursor string) (protocol.QueryPage, error) {
			readings, next, err := e.cfg.Local.QueryPage(typeName, from, to, e.cfg.PageLimit, cursor)
			if err != nil {
				return protocol.QueryPage{}, fmt.Errorf("query: local scan: %w", err)
			}
			return protocol.QueryPage{Readings: readings, NextCursor: next}, nil
		},
	}
}

// remotePages pages through one endpoint over the network. Each page
// is a one-target scatter, so one FanoutTimeout bounds it even when
// the transport ignores its context: a stuck parent, cloud or fan-out
// winner fails the walk at the deadline instead of blocking the read.
func (e *Engine) remotePages(ctx context.Context, target, typeName string, from, to time.Time) pageSource {
	return pageSource{
		fetch: func(cursor string) (protocol.QueryPage, error) {
			return e.queryPage(ctx, e.sendBounded, target, e.rangeRequest(typeName, from, to, cursor))
		},
		target: target,
	}
}

// rangeRequest asks for the page of a range read that starts at cursor.
func (e *Engine) rangeRequest(typeName string, from, to time.Time, cursor string) protocol.QueryRequest {
	return protocol.QueryRequest{
		TypeName: typeName,
		FromUnix: from.UnixNano(),
		ToUnix:   to.UnixNano(),
		Limit:    e.cfg.PageLimit,
		Cursor:   cursor,
	}
}

// walkPages is the single implementation of the cursor walk: fetch,
// hand the page to fn, follow NextCursor until exhausted, and fail on
// a stalled cursor (a buggy or hostile server echoing the request
// cursor back would otherwise loop forever or silently truncate).
func walkPages(src pageSource, cursor string, fn func(page protocol.QueryPage) error) error {
	for {
		page, err := src.fetch(cursor)
		if err != nil {
			return err
		}
		if err := fn(page); err != nil {
			return err
		}
		if page.NextCursor == "" {
			return nil
		}
		if page.NextCursor == cursor {
			if src.target == "" {
				return fmt.Errorf("query: local scan stalled at cursor %q", cursor)
			}
			return fmt.Errorf("query: %s returned a stalled cursor %q", src.target, cursor)
		}
		cursor = page.NextCursor
	}
}

// readAll walks src from cursor and returns out followed by the
// readings of every page.
func readAll(src pageSource, cursor string, out []model.Reading) ([]model.Reading, error) {
	err := walkPages(src, cursor, func(page protocol.QueryPage) error {
		out = append(out, page.Readings...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// answer is one target's reply to a scatter.
type answer[T any] struct {
	target string
	val    T
}

// scatter is the engine's one scatter-gather. It calls probe for every
// target concurrently under one FanoutTimeout deadline and returns the
// answers in arrival order, the failed targets (sorted, for flags and
// messages) and the joined failures. The gather never blocks past the
// deadline: a target still out when it expires — its probe stuck in a
// Send that ignores the cancellation — is counted down with the
// deadline error, and its goroutine resolves into the buffered channel
// whenever the transport returns, so nothing leaks for good.
//
// A non-nil decided ends the race early: the first answer it accepts
// is the last one returned, and the other probes are cancelled and
// drained for at most loserDrainGrace, so a failure that came before
// the cancel is still reported. A loser that fails only with the
// cancellation is not down: it was abandoned, not unreachable.
func scatter[T any](ctx context.Context, timeout time.Duration, targets []string,
	probe func(ctx context.Context, target string) (T, error), decided func(T) bool) (got []answer[T], down []string, err error) {
	fctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type result struct {
		i int
		answer[T]
		err error
	}
	results := make(chan result, len(targets))
	for i, target := range targets {
		go func() {
			v, err := probe(fctx, target)
			results <- result{i, answer[T]{target, v}, err}
		}()
	}
	var errs []error
	received := make([]bool, len(targets))
	deadline := fctx.Done()
	var grace <-chan time.Time
gather:
	for range targets {
		select {
		case r := <-results:
			received[r.i] = true
			switch {
			case r.err != nil:
				if grace == nil || !errors.Is(r.err, context.Canceled) {
					errs = append(errs, r.err)
					down = append(down, r.target)
				}
			case grace == nil:
				got = append(got, r.answer)
				if decided != nil && decided(r.val) {
					cancel()
					timer := time.NewTimer(loserDrainGrace)
					defer timer.Stop()
					deadline, grace = nil, timer.C
				}
			}
		case <-deadline:
			for i, t := range targets {
				if !received[i] {
					errs = append(errs, fmt.Errorf("query: %s: %w", t, fctx.Err()))
					down = append(down, t)
				}
			}
			break gather
		case <-grace:
			break gather
		}
	}
	sort.Strings(down)
	return got, down, errors.Join(errs...)
}

// fanOutRange scatters the first page of a range over the siblings
// and stops at the first non-empty one, then walks the winner's
// remaining pages, each bounded by its own FanoutTimeout. All-empty
// gathers return nil; an error is reported only when every probe
// failed. down names the siblings that failed before an answer was
// found.
func (e *Engine) fanOutRange(ctx context.Context, targets []string, typeName string, from, to time.Time) (readings []model.Reading, down []string, err error) {
	req := e.rangeRequest(typeName, from, to, "")
	got, down, err := scatter(ctx, e.cfg.FanoutTimeout, targets, func(ctx context.Context, target string) (protocol.QueryPage, error) {
		return e.queryPage(ctx, e.send, target, req)
	}, func(page protocol.QueryPage) bool { return len(page.Readings) > 0 })
	if n := len(got); n > 0 && len(got[n-1].val.Readings) > 0 {
		w := got[n-1]
		if w.val.NextCursor == "" {
			return w.val.Readings, down, nil
		}
		readings, err := readAll(e.remotePages(ctx, w.target, typeName, from, to), w.val.NextCursor, w.val.Readings)
		return readings, down, err
	}
	if len(down) == len(targets) && len(targets) > 0 {
		return nil, down, fmt.Errorf("query: all %d siblings failed: %w", len(targets), err)
	}
	return nil, down, nil
}

// Latest serves the point read: the local store first (the paper's
// critical real-time path — no network hop), then the cloud, which
// holds the whole city's newest preserved values.
func (e *Engine) Latest(ctx context.Context, sensorID string) (model.Reading, bool, Source, error) {
	if e.cfg.Local != nil {
		if r, ok := e.cfg.Local.Latest(sensorID); ok {
			return r, true, SourceLocal, nil
		}
	}
	r, ok, err := e.LatestFrom(ctx, e.cfg.CloudID, sensorID)
	return r, ok, SourceCloud, err
}

// LatestFrom reads a sensor's newest value from one endpoint over the
// network, bounded by FanoutTimeout.
func (e *Engine) LatestFrom(ctx context.Context, target, sensorID string) (model.Reading, bool, error) {
	page, err := e.queryPage(ctx, e.sendBounded, target, protocol.QueryRequest{SensorID: sensorID})
	if err != nil {
		return model.Reading{}, false, err
	}
	if !page.Found || len(page.Readings) == 0 {
		return model.Reading{}, false, nil
	}
	return page.Readings[0], true, nil
}

// Aggregate executes a decomposable count/mean/min/max aggregate over
// a type range with summary push-down: the partials are computed by
// the tier owning the range and merged here, so only summary-sized
// payloads cross the network — never raw readings. Ranges within the
// fog layer-2 window gather one partial per district; older ranges
// ask the cloud archive for a single summary.
//
// Lossless merging requires disjoint partials, and the fog layer-1
// stores overlap their districts' stores (a node retains what it has
// already flushed), so the fog1 tier is deliberately not consulted:
// aggregate recency is bounded by the child flush interval, and
// readings ingested but not yet flushed upward are visible to Range
// (which probes fog1) before they are visible to Aggregate.
func (e *Engine) Aggregate(ctx context.Context, typeName string, from, to time.Time) (aggregate.Summary, Source, error) {
	res, err := e.AggregateDetailed(ctx, typeName, from, to)
	if err != nil {
		return aggregate.Summary{}, "", err
	}
	if res.Partial {
		// The blind API keeps the pre-partition contract: a summary
		// that silently undercounts is worse than an error. Partition-
		// aware callers use AggregateDetailed.
		return aggregate.Summary{}, "", fmt.Errorf(
			"query: aggregate: only a partial summary available (%d of %d owners unreachable: %v)",
			len(res.Missing), len(e.cfg.Districts), res.Missing)
	}
	return res.Summary, res.Source, nil
}

// AggregateResult is the full answer of a push-down aggregate.
type AggregateResult struct {
	Summary aggregate.Summary
	// Source is the tier whose partials produced the summary.
	Source Source
	// Partial marks a summary merged from an incomplete owner set:
	// one or more districts were unreachable AND the cloud (which
	// holds everything flushed and could have answered alone) was
	// unreachable too. The summary covers only the owners that
	// answered.
	Partial bool
	// Missing names the owners whose partials are absent from a
	// partial summary.
	Missing []string
}

// AggregateDetailed is Aggregate with partition visibility: when some
// district owners are unreachable it falls back to the cloud archive,
// and when the cloud is unreachable too it degrades to an explicit
// partial — the merged summary of the districts that answered, with
// Partial set and the absent owners named — instead of failing. An
// error is returned only when no owner at all could answer.
func (e *Engine) AggregateDetailed(ctx context.Context, typeName string, from, to time.Time) (AggregateResult, error) {
	now := e.cfg.Clock.Now()
	inFog2 := !from.Before(now.Add(-e.cfg.Fog2Retention))
	var partialSum aggregate.Summary
	var missing []string
	gathered := false
	if inFog2 && len(e.cfg.Districts) > 0 {
		sum, down, err := e.gatherSummaries(ctx, e.cfg.Districts, typeName, from, to)
		if err == nil && len(down) == 0 {
			return AggregateResult{Summary: sum, Source: SourceParent}, nil
		}
		// Some (or all) districts failed: the cloud still holds
		// everything flushed; prefer its complete answer over a lossy
		// partial merge. Remember the partial in case the cloud is
		// unreachable too.
		if len(down) < len(e.cfg.Districts) {
			partialSum, missing, gathered = sum, down, true
		}
	}
	sum, err := e.SummaryFrom(ctx, e.cfg.CloudID, typeName, from, to)
	if err == nil {
		return AggregateResult{Summary: sum, Source: SourceCloud}, nil
	}
	if gathered {
		return AggregateResult{Summary: partialSum, Source: SourceParent, Partial: true, Missing: missing}, nil
	}
	return AggregateResult{}, err
}

// gatherSummaries scatters a summary request to every owner and
// merges the partials of those that answered, in arrival order. down
// names the owners that failed — a lossless aggregate needs every
// owner, so callers treat a non-empty down as "incomplete" and decide
// whether to fall back or degrade. err is set when every owner failed.
func (e *Engine) gatherSummaries(ctx context.Context, targets []string, typeName string, from, to time.Time) (aggregate.Summary, []string, error) {
	got, down, err := scatter(ctx, e.cfg.FanoutTimeout, targets, func(ctx context.Context, target string) (aggregate.Summary, error) {
		return e.summary(ctx, e.send, target, typeName, from, to)
	}, nil)
	if len(down) == len(targets) && len(targets) > 0 {
		return aggregate.Summary{}, down, fmt.Errorf("query: gather summaries: %w", err)
	}
	total := aggregate.Summary{}
	for _, a := range got {
		total = total.Merge(a.val)
	}
	return total, down, nil
}

// SummaryFrom fetches one partial summary from an endpoint, bounded by
// FanoutTimeout.
func (e *Engine) SummaryFrom(ctx context.Context, target, typeName string, from, to time.Time) (aggregate.Summary, error) {
	return e.summary(ctx, e.sendBounded, target, typeName, from, to)
}

// summary asks target for one partial summary through send.
func (e *Engine) summary(ctx context.Context, send sender, target, typeName string, from, to time.Time) (aggregate.Summary, error) {
	req, err := protocol.EncodeJSON(protocol.SummaryRequest{
		TypeName: typeName, FromUnix: from.UnixNano(), ToUnix: to.UnixNano(),
	})
	if err != nil {
		return aggregate.Summary{}, err
	}
	reply, err := send(ctx, target, transport.KindSummary, req)
	if err != nil {
		return aggregate.Summary{}, err
	}
	var resp protocol.SummaryResponse
	if err := protocol.DecodeJSON(reply, &resp); err != nil {
		return aggregate.Summary{}, err
	}
	// Normalize at the trust boundary: a Count==0 summary off the wire
	// must be the identity, whatever its Min/Max bytes claim.
	return resp.Summary.Normalize(), nil
}

// queryPage asks target for one query page through send and opens the
// binary reply.
func (e *Engine) queryPage(ctx context.Context, send sender, target string, req protocol.QueryRequest) (protocol.QueryPage, error) {
	payload, err := protocol.EncodeJSON(req)
	if err != nil {
		return protocol.QueryPage{}, err
	}
	reply, err := send(ctx, target, transport.KindQuery, payload)
	if err != nil {
		return protocol.QueryPage{}, err
	}
	page, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		return protocol.QueryPage{}, fmt.Errorf("query: %s: %w", target, err)
	}
	return page, nil
}

// sender sends one request and returns the reply: send, or
// sendBounded for a call on its own.
type sender func(ctx context.Context, target string, kind transport.Kind, payload []byte) ([]byte, error)

// send sends one request. All engine traffic is tagged
// transport.ClassQuery so the traffic matrix attributes read bytes
// separately from sensor flows.
func (e *Engine) send(ctx context.Context, target string, kind transport.Kind, payload []byte) ([]byte, error) {
	reply, err := e.cfg.Transport.Send(ctx, transport.Message{
		From: e.cfg.Self, To: target, Kind: kind, Class: transport.ClassQuery, Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("query: %s: %w", target, err)
	}
	return reply, nil
}

// sendBounded is send as a one-target scatter, so one FanoutTimeout
// bounds it even when the transport ignores its context: a stuck
// endpoint fails the call at the deadline instead of blocking it. Only
// the send runs on the scatter's goroutine; the caller encodes the
// request and opens the reply on its own stack, which a fresh
// goroutine would have to grow on every call.
func (e *Engine) sendBounded(ctx context.Context, target string, kind transport.Kind, payload []byte) ([]byte, error) {
	got, _, err := scatter(ctx, e.cfg.FanoutTimeout, []string{target}, func(ctx context.Context, target string) ([]byte, error) {
		return e.send(ctx, target, kind, payload)
	}, nil)
	if len(got) == 0 {
		return nil, err
	}
	return got[0].val, nil
}
