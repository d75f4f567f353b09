package main

import (
	"context"
	"fmt"
	"time"

	"f2c/internal/core"
	"f2c/internal/query"
)

// The six query classes, in the order the one closed-loop client
// goroutine cycles them (the next query is sent when the previous one
// returns). Windows are anchored at T0, the end of the preload, and
// the load never writes at or before T0, so every class has one fixed
// result set.
var queryClasses = []string{"latest", "range_local", "range_sibling", "range_fog2", "range_cloud", "aggregate"}

// queryTimeout bounds one query.
const queryTimeout = 10 * time.Second

// afterShare is the length of a read phase that follows the writes
// (workloadSpec.readsAfter) as a share of the window.
const afterShare = 0.5

// queryPlan holds everything the client needs to issue the classes
// against one city, and what each must return.
type queryPlan struct {
	c  *city
	t0 time.Time
	// fog1 acts for fog1 node 0 the way core.System.QueryEngine wires
	// it: local store, district sibling, parent district, all
	// districts, over the shared tcpnet client. pure is a network-only
	// client.
	fog1, pure *query.Engine
	// own and sibling are sensor types node 0 and only its district
	// sibling ingest; sensorID is one preloaded sensor of own. The
	// range classes above fog1 ask for sibling's type: node 0 holds
	// none of it, so the plan cannot be answered early by a ragged
	// local tail (see README, "Findings").
	own, sibling, sensorID string
	// want is each class's reference result count, computed once after
	// the preload from the stores themselves.
	want map[string]int
}

func newQueryPlan(c *city, t0 time.Time, own, sibling, sensorID string) (*queryPlan, error) {
	self := c.fog1[0]
	spec, _ := c.topo.Node(self.id)
	var districtIDs []string
	for _, m := range c.fog2 {
		districtIDs = append(districtIDs, m.id)
	}
	fog1, err := query.New(query.Config{
		Self: self.id, Transport: c.client, Clock: c.clock,
		Fog1Retention: fog1Retain, Fog2Retention: fog2Retain,
		Siblings: c.topo.Neighbors(self.id), Parent: spec.Parent,
		Districts: districtIDs, CloudID: core.CloudID, Local: self.node,
	})
	if err != nil {
		return nil, err
	}
	pure, err := query.New(query.Config{Self: clientName, Transport: c.client, Clock: c.clock})
	if err != nil {
		return nil, err
	}
	p := &queryPlan{c: c, t0: t0, fog1: fog1, pure: pure, own: own, sibling: sibling, sensorID: sensorID}
	p.want = p.reference()
	return p, nil
}

// window returns a class's time range.
func (p *queryPlan) window(class string) (from, to time.Time) {
	switch class {
	case "range_local", "range_sibling":
		return p.t0.Add(-31 * time.Minute), p.t0.Add(-time.Minute)
	case "range_fog2":
		return p.t0.Add(-6*time.Hour - 30*time.Minute), p.t0.Add(-5 * time.Hour)
	case "range_cloud":
		return p.t0.Add(-29 * time.Hour), p.t0.Add(-27*time.Hour - 30*time.Minute)
	default: // aggregate
		return p.t0.Add(-12 * time.Hour), p.t0
	}
}

// reference computes every class's expected result count straight
// from the stores, without the query layer.
func (p *queryPlan) reference() map[string]int {
	c := p.c
	want := map[string]int{"latest": 0}
	if _, ok := c.fog1[0].node.Latest(p.sensorID); ok {
		want["latest"] = 1
	}
	from, to := p.window("range_local")
	want["range_local"] = len(c.fog1[0].node.Query(p.own, from, to))
	want["range_sibling"] = len(c.fog1[1].node.Query(p.sibling, from, to))
	from, to = p.window("range_fog2")
	want["range_fog2"] = len(c.fog2[0].node.Query(p.sibling, from, to))
	from, to = p.window("range_cloud")
	want["range_cloud"] = len(c.cloud.Historical(p.sibling, from, to))
	from, to = p.window("aggregate")
	for _, m := range c.fog2 {
		want["aggregate"] += len(m.node.Query(p.own, from, to))
	}
	return want
}

// run issues one query of a class and returns its result count.
func (p *queryPlan) run(ctx context.Context, class string) (int, error) {
	from, to := p.window(class)
	switch class {
	case "latest":
		_, ok, err := p.pure.LatestFrom(ctx, p.c.fog1[0].id, p.sensorID)
		if ok {
			return 1, err
		}
		return 0, err
	case "range_local":
		rs, _, err := p.fog1.Range(ctx, p.own, from, to, 0)
		return len(rs), err
	case "range_sibling", "range_fog2", "range_cloud":
		rs, _, err := p.fog1.Range(ctx, p.sibling, from, to, 0)
		return len(rs), err
	case "aggregate":
		sum, _, err := p.fog1.Aggregate(ctx, p.own, from, to)
		return int(sum.Count), err
	}
	return 0, fmt.Errorf("unknown query class %q", class)
}

// queryStats is what the query client measured.
type queryStats struct {
	issued, failed, wrong int
	latencyMS             map[string][]float64
	elapsed               time.Duration
}

// runQueries cycles the classes from start for the length of window.
// A failed or wrong query contributes no latency sample.
func (p *queryPlan) runQueries(start time.Time, window time.Duration) queryStats {
	st := queryStats{latencyMS: make(map[string][]float64, len(queryClasses))}
	time.Sleep(time.Until(start))
	end := start.Add(window)
	for k := 0; ; k++ {
		from := time.Now()
		if !from.Before(end) {
			break
		}
		class := queryClasses[k%len(queryClasses)]
		n, err := p.timed(class)
		st.issued++
		switch {
		case err != nil:
			st.failed++
		case n != p.want[class]:
			st.wrong++
		default:
			st.latencyMS[class] = append(st.latencyMS[class], ms(time.Since(from)))
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// timed issues one query; in a traced run it is a root span and the
// parent of the sends it causes.
func (p *queryPlan) timed(class string) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	tr := p.c.tracer
	if tr == nil {
		return p.run(ctx, class)
	}
	id := tr.begin("query."+class, 0)
	p.c.currentQuery.Store(id)
	n, err := p.run(ctx, class)
	p.c.currentQuery.Store(0)
	tr.end(id, int64(n))
	return n, err
}
