package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/metrics"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

// childArg marks a re-execution of the test binary as an f2cd daemon:
// TestThreeProcessCity starts real processes without needing a built
// binary on disk.
const childArg = "f2cd-child"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "f2cd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonProc is one running f2cd child.
type daemonProc struct {
	id   string
	cmd  *exec.Cmd
	addr string
	mu   sync.Mutex
	log  bytes.Buffer
}

var servingRE = regexp.MustCompile(`serving tcpnet on ([^\s,]+)`)

// startDaemon launches an f2cd child listening on an ephemeral
// loopback port and waits for the address it logs.
func startDaemon(t *testing.T, id string, args ...string) *daemonProc {
	t.Helper()
	p := &daemonProc{id: id}
	p.cmd = exec.Command(os.Args[0], append([]string{childArg, "-id", id, "-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.cmd.Process.Kill() }) // no-op after a clean stop
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.log.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addr:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never started serving:\n%s", id, p.output())
	}
	return p
}

func (p *daemonProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop sends SIGTERM and requires a clean exit.
func (p *daemonProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v", p.id, err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s did not exit 0 on SIGTERM: %v\n%s", p.id, err, p.output())
	}
}

// TestThreeProcessCity is the multi-process smoke, on the profile an
// operator gets by default: three real f2cd processes (cloud, fog2,
// fog1) over tcpnet, started with identity, address and -data-dir
// flags only. It ingests through a tcpnet client, flushes each tier by
// control op, reads at the cloud, checks every node runs journal +
// segment store + admission, stops all three with SIGTERM, then
// restarts the cloud on its directory and requires the same answer.
func TestThreeProcessCity(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three f2cd processes")
	}
	const cloudID, fog2ID, fog1ID = "cloud", "fog2/d01", "fog1/d01-s01"
	dir := t.TempDir()
	cloud := startDaemon(t, cloudID, "-layer", "cloud", "-data-dir", dir)
	fog2 := startDaemon(t, fog2ID, "-layer", "fog2", "-parent", cloudID, "-parent-addr", cloud.addr, "-data-dir", dir)
	fog1 := startDaemon(t, fog1ID, "-layer", "fog1", "-parent", fog2ID, "-parent-addr", fog2.addr, "-data-dir", dir)

	tr := tcpnet.New(tcpnet.Options{})
	defer tr.Close()
	for _, p := range []*daemonProc{cloud, fog2, fog1} {
		tr.AddPeer(p.id, p.addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	send := func(to string, kind transport.Kind, payload []byte) []byte {
		t.Helper()
		reply, err := tr.Send(ctx, transport.Message{From: "edge/smoke", To: to, Kind: kind, Payload: payload})
		if err != nil {
			t.Fatalf("%s to %s: %v", kind, to, err)
		}
		return reply
	}
	control := func(to string, op protocol.ControlOp) []byte {
		t.Helper()
		req, err := protocol.EncodeJSON(protocol.ControlRequest{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		return send(to, transport.KindControl, req)
	}

	// Enough distinct sensors that every tier's memtable (4 MiB by
	// default) spills to a segment file.
	st, err := model.TypeByName("temperature")
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 8, 5000
	for i := 0; i < batches; i++ {
		gen, err := sensor.NewGenerator(sensor.Config{Type: st, NodeID: fmt.Sprintf("edge/smoke/w%d", i), Sensors: perBatch, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := protocol.EncodeBatchPayload(gen.Next(time.Now()), aggregate.CodecNone)
		if err != nil {
			t.Fatal(err)
		}
		send(fog1ID, transport.KindBatch, payload)
	}
	control(fog1ID, protocol.OpFlush)
	control(fog2ID, protocol.OpFlush)

	var status protocol.StatusResponse
	if err := protocol.DecodeJSON(control(fog1ID, protocol.OpStatus), &status); err != nil {
		t.Fatal(err)
	}
	latestReq, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "edge/smoke/w0/temperature/0"})
	page, err := protocol.DecodeQueryPage(send(cloudID, transport.KindQuery, latestReq))
	if err != nil || !page.Found {
		t.Fatalf("cloud latest for an ingested sensor: %+v, %v", page, err)
	}
	sumReq, _ := protocol.EncodeJSON(protocol.SummaryRequest{
		TypeName: "temperature", FromUnix: time.Now().Add(-time.Hour).UnixNano(), ToUnix: time.Now().Add(time.Hour).UnixNano(),
	})
	sum := func(tr transport.Transport) aggregate.Summary {
		t.Helper()
		reply, err := tr.Send(ctx, transport.Message{From: "edge/smoke", To: cloudID, Kind: transport.KindSummary, Payload: sumReq})
		if err != nil {
			t.Fatalf("cloud sum: %v", err)
		}
		var resp protocol.SummaryResponse
		if err := protocol.DecodeJSON(reply, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Summary
	}
	want := sum(tr)
	if want.Count == 0 || want.Count != status.StoredReadings {
		t.Fatalf("cloud sums %d readings, fog1 stored %d of the %d sent", want.Count, status.StoredReadings, batches*perBatch)
	}

	// The default is the measured profile, on every node: admission
	// counters, a journal, and a segment store that has spilled.
	for _, p := range []*daemonProc{cloud, fog2, fog1} {
		var exp metrics.RegistryExport
		if err := protocol.DecodeJSON(control(p.id, protocol.OpMetrics), &exp); err != nil {
			t.Fatal(err)
		}
		if exp.Counters[p.id+".sched.ingest.admitted"] == 0 {
			t.Errorf("%s: no sched.ingest.admitted count: admission is not gating the handler path", p.id)
		}
		if exp.Counters["transport.server.frames_received"] == 0 {
			t.Errorf("%s: no transport.server.frames_received in the scrape", p.id)
		}
		if _, ok := exp.Gauges[p.id+"."+metrics.StorageSegments]; !ok {
			t.Errorf("%s: no %s gauge: the segment store is not running", p.id, metrics.StorageSegments)
		}
		if logs, _ := filepath.Glob(filepath.Join(dir, p.id, "wal-*")); len(logs) == 0 {
			t.Errorf("%s: no journal under %s", p.id, filepath.Join(dir, p.id))
		}
		manifest := filepath.Join(dir, p.id, "store", "MANIFEST")
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if _, err := os.Stat(manifest); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("%s: %s never appeared", p.id, manifest)
				break
			}
		}
	}

	fog1.stop(t)
	fog2.stop(t)
	cloud.stop(t)

	// Durability across a real process restart: the same binary on the
	// same directory answers the same sum.
	again := startDaemon(t, cloudID, "-layer", "cloud", "-data-dir", dir)
	tr2 := tcpnet.New(tcpnet.Options{})
	defer tr2.Close()
	tr2.AddPeer(cloudID, again.addr)
	if got := sum(tr2); got != want {
		t.Errorf("restarted cloud sums %+v, want %+v", got, want)
	}
	again.stop(t)
	if out := cloud.output() + fog2.output() + fog1.output() + again.output(); strings.Contains(out, "panic") {
		t.Errorf("a daemon panicked:\n%s", out)
	}
}

var openDataRE = regexp.MustCompile(`open data on (http://[^\s]+)/opendata/v1/`)

// TestAllInOneProcess runs the all-in-one daemon as a real process on
// the production profile (-data-dir: journal + segment store at every
// node): the default city behind one tcpnet port and an open-data HTTP
// port. It ingests at a section, flushes each tier by control op
// through that one port, reads the cloud's status and the open-data
// categories, pages the open-data readings to the end and requires
// them to add up to the cloud's stored readings, and requires a clean
// exit on SIGTERM.
func TestAllInOneProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an f2cd process")
	}
	const fog1ID, fog2ID, cloudID = "fog1/d01-s01", "fog2/d01", "cloud"
	p := startDaemon(t, cloudID, "-all-in-one", "-opendata-listen", "127.0.0.1:0", "-data-dir", t.TempDir())
	m := openDataRE.FindStringSubmatch(p.output())
	if m == nil {
		t.Fatalf("no open-data address logged:\n%s", p.output())
	}

	tr := tcpnet.New(tcpnet.Options{})
	defer tr.Close()
	for _, id := range []string{fog1ID, fog2ID, cloudID} {
		tr.AddPeer(id, p.addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	send := func(to string, kind transport.Kind, payload []byte) []byte {
		t.Helper()
		reply, err := tr.Send(ctx, transport.Message{From: "edge/smoke", To: to, Kind: kind, Payload: payload})
		if err != nil {
			t.Fatalf("%s to %s: %v", kind, to, err)
		}
		return reply
	}
	status := func(to string) protocol.StatusResponse {
		t.Helper()
		req, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
		var st protocol.StatusResponse
		if err := protocol.DecodeJSON(send(to, transport.KindControl, req), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st, err := model.TypeByName("temperature")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sensor.NewGenerator(sensor.Config{Type: st, NodeID: "edge/smoke", Sensors: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.EncodeBatchPayload(gen.Next(time.Now()), aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	send(fog1ID, transport.KindBatch, payload)
	flush, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpFlush})
	send(fog1ID, transport.KindControl, flush)
	send(fog2ID, transport.KindControl, flush)

	fog1, cloud := status(fog1ID), status(cloudID)
	if fog1.NodeID != fog1ID || cloud.NodeID != cloudID {
		t.Fatalf("status answered by %q and %q, want %q and %q", fog1.NodeID, cloud.NodeID, fog1ID, cloudID)
	}
	if cloud.StoredReadings == 0 || cloud.StoredReadings != fog1.StoredReadings {
		t.Errorf("cloud stores %d readings, fog1 stored %d", cloud.StoredReadings, fog1.StoredReadings)
	}

	resp, err := http.Get(m[1] + "/opendata/v1/categories")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "urban") {
		t.Errorf("open-data categories: status %d, %v:\n%s", resp.StatusCode, err, body)
	}

	// Open data pages through the series the cloud's status counts.
	served, next := 0, ""
	for pages := int64(0); ; pages++ {
		if pages > cloud.StoredReadings/50+1 {
			t.Fatalf("the open-data walk is still going after %d pages", pages)
		}
		resp, err := http.Get(m[1] + "/opendata/v1/types/temperature/readings?limit=50&cursor=" + url.QueryEscape(next))
		if err != nil {
			t.Fatal(err)
		}
		var page []model.Reading
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(page) > 50 {
			t.Fatalf("open-data page %d: status %d, %d readings, %v", pages, resp.StatusCode, len(page), err)
		}
		served += len(page)
		if next = resp.Header.Get("X-Next-Cursor"); next == "" {
			break
		}
	}
	if int64(served) != cloud.StoredReadings {
		t.Errorf("open data serves %d temperature readings, the cloud stores %d", served, cloud.StoredReadings)
	}

	p.stop(t)
	if strings.Contains(p.output(), "panic") {
		t.Errorf("the daemon panicked:\n%s", p.output())
	}
}
