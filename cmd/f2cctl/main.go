// Command f2cctl inspects and controls running f2cd nodes:
//
//	f2cctl -node localhost:9002 -node-id fog1/d01-s01 status
//	f2cctl -node localhost:9002 -node-id fog1/d01-s01 flush
//	f2cctl -node localhost:9002 -node-id fog1/d01-s01 metrics
//	f2cctl -node localhost:9002 -node-id fog1/d01-s01 routes
//	f2cctl -node localhost:9000 -node-id fog2/d01 status   # any node an all-in-one port hosts
//	f2cctl -node localhost:9000 latest <sensorID>
//	f2cctl -node localhost:9000 range <type> <fromRFC3339> <toRFC3339>
//	f2cctl -node localhost:9000 sum <type> <fromRFC3339> <toRFC3339>
//	f2cctl -node ... -node-id fog1/d01-s01 subscribe <id> <type> window <width> [slide]
//	f2cctl -node ... -node-id fog1/d01-s01 subscribe <id> <type> threshold <width> gt|lt <value>
//	f2cctl -node ... -node-id fog1/d01-s01 unsubscribe <id>
//	f2cctl -node ... -node-id fog1/d01-s01 subs
//	f2cctl dlc        # print the SCC-DLC -> F2C phase mapping
//	f2cctl topology   # print the Barcelona Fig. 6 layout
//
// Range scans are paged: the node returns at most -limit readings per
// response and f2cctl follows the page cursor until the scan is
// complete. sum asks the node for a decomposable count/mean/min/max
// summary computed where the data lives — only the summary-sized
// answer crosses the network.
//
// subscribe registers a standing continuous query on a fog node: the
// node then evaluates the window (or threshold) incrementally in its
// ingest path and pushes fired alerts upward — no polling. Durations
// use Go syntax (90s, 5m).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/query"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "f2cctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("f2cctl", flag.ContinueOnError)
	nodeAddr := fs.String("node", "", "target node's tcpnet address (host:port)")
	nodeID := fs.String("node-id", "cloud", "addressed node id (an all-in-one port routes by it)")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	limit := fs.Int("limit", 0, "readings per range page (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("need a command: status|flush|metrics|routes|latest|range|sum|subscribe|unsubscribe|subs|dlc|topology")
	}
	cmd, rest := rest[0], rest[1:]

	// Local informational commands.
	switch cmd {
	case "dlc":
		fmt.Print(core.DescribeDLC())
		return nil
	case "topology":
		fmt.Print(topology.Barcelona().Describe())
		return nil
	}

	if *nodeAddr == "" {
		return errors.New("-node is required for remote commands")
	}
	target := *nodeID
	if target == "" {
		target = "cloud"
	}
	tr := tcpnet.New(tcpnet.Options{DialTimeout: *timeout})
	tr.AddPeer(target, *nodeAddr)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Reads go through the query engine, as any node's do: range walks
	// the node's pages, and every answer crosses the engine's checks
	// (a summary off the wire is normalized at the trust boundary).
	// -timeout bounds each page as it bounds the whole command.
	eng, err := query.New(query.Config{
		Self: "f2cctl", Transport: tr, CloudID: target, PageLimit: *limit,
		FanoutTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	// control sends one control request; a non-nil into receives the
	// decoded reply.
	control := func(req protocol.ControlRequest, into any) ([]byte, error) {
		payload, err := protocol.EncodeJSON(req)
		if err != nil {
			return nil, err
		}
		reply, err := tr.Send(ctx, transport.Message{
			From: "f2cctl", To: target, Kind: transport.KindControl, Payload: payload,
		})
		if err == nil && into != nil {
			err = protocol.DecodeJSON(reply, into)
		}
		return reply, err
	}

	switch cmd {
	case "status":
		var st protocol.StatusResponse
		if _, err := control(protocol.ControlRequest{Op: protocol.OpStatus}, &st); err != nil {
			return err
		}
		fmt.Printf("node %s (%s)\n  stored readings: %d in %d series\n  pending batches: %d\n  ingested batches: %d\n  dedup eliminated: %.1f%%\n",
			st.NodeID, st.Layer, st.StoredReadings, st.StoredSeries,
			st.PendingBatches, st.IngestedBatches, 100*st.DedupEliminated)
		return nil
	case "flush":
		return printReply(control(protocol.ControlRequest{Op: protocol.OpFlush}, nil))
	case "metrics":
		if len(rest) == 0 {
			return printReply(control(protocol.ControlRequest{Op: protocol.OpMetrics}, nil))
		}
		// An optional substring narrows the dump — "sched." shows the
		// admission scheduler's gauges and counters, "flush." the
		// upward flusher's.
		var exp metrics.RegistryExport
		if _, err := control(protocol.ControlRequest{Op: protocol.OpMetrics}, &exp); err != nil {
			return err
		}
		filtered := metrics.RegistryExport{
			Counters:   make(map[string]int64),
			Gauges:     make(map[string]int64),
			Histograms: make(map[string]metrics.HistogramExport),
		}
		match := rest[0]
		for name, v := range exp.Counters {
			if strings.Contains(name, match) {
				filtered.Counters[name] = v
			}
		}
		for name, v := range exp.Gauges {
			if strings.Contains(name, match) {
				filtered.Gauges[name] = v
			}
		}
		for name, v := range exp.Histograms {
			if strings.Contains(name, match) {
				filtered.Histograms[name] = v
			}
		}
		data, err := json.MarshalIndent(filtered, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	case "routes":
		// The elastic-rebalance view of a fog node: which sensor types
		// it forwards to their new ring owner, and how much shard state
		// live migration moved through it.
		var rr protocol.RoutesResponse
		if _, err := control(protocol.ControlRequest{Op: protocol.OpRoutes}, &rr); err != nil {
			return err
		}
		fmt.Printf("node %s\n  migrated out: %d transfers, %d readings, %d B\n  migrated in:  %d transfers, %d readings\n",
			rr.NodeID, rr.MigratedOutTransfers, rr.MigratedOutReadings, rr.MigratedOutBytes,
			rr.MigratedInTransfers, rr.MigratedInReadings)
		if len(rr.Routes) == 0 {
			fmt.Println("  no active forwarding routes")
			return nil
		}
		types := make([]string, 0, len(rr.Routes))
		for typ := range rr.Routes {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			fmt.Printf("  %s -> %s\n", typ, rr.Routes[typ])
		}
		return nil
	case "latest":
		if len(rest) != 1 {
			return errors.New("usage: latest <sensorID>")
		}
		r, ok, err := eng.LatestFrom(ctx, target, rest[0])
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("no data")
			return nil
		}
		printReadings([]model.Reading{r})
		return nil
	case "range":
		from, to, err := parseRangeArgs("range", rest)
		if err != nil {
			return err
		}
		// Stream the scan page by page: no response materializes more
		// than the node's page limit of readings, and pages print as
		// they arrive.
		total := 0
		err = eng.RangePages(ctx, target, rest[0], from, to, func(page protocol.QueryPage) error {
			printReadings(page.Readings)
			total += len(page.Readings)
			return nil
		})
		if err != nil {
			return err
		}
		if total == 0 {
			fmt.Println("no data")
		}
		return nil
	case "sum":
		from, to, err := parseRangeArgs("sum", rest)
		if err != nil {
			return err
		}
		s, err := eng.SummaryFrom(ctx, target, rest[0], from, to)
		if err != nil {
			return err
		}
		if s.Count == 0 {
			fmt.Println("no data")
			return nil
		}
		fmt.Printf("count %d  mean %.3f  min %.3f  max %.3f\n", s.Count, s.Avg(), s.Min, s.Max)
		return nil
	case "subscribe":
		sub, err := parseSubscribeArgs(rest)
		if err != nil {
			return err
		}
		doc, err := json.Marshal(sub)
		if err != nil {
			return err
		}
		return printReply(control(protocol.ControlRequest{Op: protocol.OpSubscribe, Sub: doc}, nil))
	case "unsubscribe":
		if len(rest) != 1 {
			return errors.New("usage: unsubscribe <id>")
		}
		doc, err := json.Marshal(cq.Subscription{ID: rest[0]})
		if err != nil {
			return err
		}
		return printReply(control(protocol.ControlRequest{Op: protocol.OpSubscribe, Sub: doc, Remove: true}, nil))
	case "subs":
		var resp protocol.SubscriptionsResponse
		if _, err := control(protocol.ControlRequest{Op: protocol.OpSubscriptions}, &resp); err != nil {
			return err
		}
		if len(resp.Subs) == 0 {
			fmt.Printf("node %s: no standing subscriptions\n", resp.NodeID)
			return nil
		}
		fmt.Printf("node %s\n", resp.NodeID)
		for _, doc := range resp.Subs {
			var sub cq.Subscription
			if err := protocol.DecodeJSON(doc, &sub); err != nil {
				return err
			}
			fmt.Printf("  %s\n", describeSub(sub))
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseSubscribeArgs builds a subscription from the CLI form:
//
//	subscribe <id> <type> window <width> [slide]
//	subscribe <id> <type> threshold <width> gt|lt <value>
func parseSubscribeArgs(rest []string) (cq.Subscription, error) {
	usage := errors.New("usage: subscribe <id> <type> window <width> [slide] | subscribe <id> <type> threshold <width> gt|lt <value>")
	if len(rest) < 4 {
		return cq.Subscription{}, usage
	}
	sub := cq.Subscription{ID: rest[0], TypeName: rest[1]}
	width, err := time.ParseDuration(rest[3])
	if err != nil {
		return sub, fmt.Errorf("parse window: %w", err)
	}
	sub.Window = width
	switch rest[2] {
	case "window":
		sub.Kind = cq.KindWindow
		if len(rest) == 5 {
			if sub.Slide, err = time.ParseDuration(rest[4]); err != nil {
				return sub, fmt.Errorf("parse slide: %w", err)
			}
		} else if len(rest) != 4 {
			return sub, usage
		}
	case "threshold":
		sub.Kind = cq.KindThreshold
		if len(rest) != 6 {
			return sub, usage
		}
		switch rest[4] {
		case "gt":
			sub.Predicate = cq.PredAbove
		case "lt":
			sub.Predicate = cq.PredBelow
		default:
			return sub, usage
		}
		if sub.Threshold, err = strconv.ParseFloat(rest[5], 64); err != nil {
			return sub, fmt.Errorf("parse threshold: %w", err)
		}
	default:
		return sub, usage
	}
	if err := sub.Validate(); err != nil {
		return sub, err
	}
	return sub, nil
}

// describeSub renders one subscription for the subs listing.
func describeSub(sub cq.Subscription) string {
	switch sub.Kind {
	case cq.KindThreshold:
		op := ">"
		if sub.Predicate == cq.PredBelow {
			op = "<"
		}
		return fmt.Sprintf("%s  threshold %s %s %g per %v window", sub.ID, sub.TypeName, op, sub.Threshold, sub.Window)
	default:
		if sub.Slide > 0 && sub.Slide < sub.Window {
			return fmt.Sprintf("%s  window %s %v sliding every %v", sub.ID, sub.TypeName, sub.Window, sub.Slide)
		}
		return fmt.Sprintf("%s  window %s %v tumbling", sub.ID, sub.TypeName, sub.Window)
	}
}

func parseRangeArgs(cmd string, rest []string) (from, to time.Time, err error) {
	if len(rest) != 3 {
		return from, to, fmt.Errorf("usage: %s <type> <fromRFC3339> <toRFC3339>", cmd)
	}
	if from, err = time.Parse(time.RFC3339, rest[1]); err != nil {
		return from, to, fmt.Errorf("parse from: %w", err)
	}
	if to, err = time.Parse(time.RFC3339, rest[2]); err != nil {
		return from, to, fmt.Errorf("parse to: %w", err)
	}
	return from, to, nil
}

// printReply prints a control reply the node renders itself.
func printReply(reply []byte, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(string(reply))
	return nil
}

func printReadings(readings []model.Reading) {
	for _, r := range readings {
		fmt.Printf("%s  %s  %.3f %s  (%.5f, %.5f)\n",
			r.Time.Format(time.RFC3339), r.SensorID, r.Value, r.Unit, r.Location.Lat, r.Location.Lon)
	}
}
