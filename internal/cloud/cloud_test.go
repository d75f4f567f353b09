package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/transport"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func newCloud(t *testing.T) *Node {
	t.Helper()
	n, err := New(Config{ID: "cloud", City: "barcelona", Clock: sim.NewVirtualClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func trafficBatch(node string, at time.Time, vals ...float64) *model.Batch {
	b := &model.Batch{NodeID: node, TypeName: "traffic", Category: model.CategoryUrban, Collected: at}
	for i, v := range vals {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: node + "/traffic/" + string(rune('a'+i)), TypeName: "traffic",
			Category: model.CategoryUrban, Time: at, Value: v, Unit: "km/h",
		})
	}
	return b
}

func TestPreserveArchivesAndIndexes(t *testing.T) {
	n := newCloud(t)
	if err := n.Preserve(trafficBatch("fog2/d01", t0, 50, 60), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	if n.Archive().Len() != 1 {
		t.Fatalf("archive len = %d", n.Archive().Len())
	}
	rec := n.Archive().ByCategory(model.CategoryUrban)[0]
	// Provenance: origin node + cloud (from == NodeID collapses).
	if len(rec.Provenance) != 2 || rec.Provenance[0] != "fog2/d01" || rec.Provenance[1] != "cloud" {
		t.Errorf("provenance = %v", rec.Provenance)
	}
	got := n.Historical("traffic", t0.Add(-time.Minute), t0.Add(time.Minute))
	if len(got) != 2 {
		t.Errorf("historical = %d readings", len(got))
	}
	if _, ok := n.Latest("fog2/d01/traffic/a"); !ok {
		t.Error("latest lookup failed")
	}
	st := n.Status()
	if st.StoredReadings != 2 || st.IngestedBatches != 1 || st.Layer != "cloud" {
		t.Errorf("status = %+v", st)
	}
}

func TestPreserveRecordsIntermediateHop(t *testing.T) {
	n := newCloud(t)
	b := trafficBatch("fog1/d01-s01", t0, 50)
	if err := n.Preserve(b, "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	rec := n.Archive().ByCategory(model.CategoryUrban)[0]
	want := []string{"fog1/d01-s01", "fog2/d01", "cloud"}
	if len(rec.Provenance) != 3 {
		t.Fatalf("provenance = %v, want %v", rec.Provenance, want)
	}
	for i := range want {
		if rec.Provenance[i] != want[i] {
			t.Fatalf("provenance = %v, want %v", rec.Provenance, want)
		}
	}
}

func TestAnalyze(t *testing.T) {
	n := newCloud(t)
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Duration(i*30) * time.Minute)
		if err := n.Preserve(trafficBatch("fog2/d01", at, float64(10*(i+1))), "fog2/d01"); err != nil {
			t.Fatal(err)
		}
	}
	windows, err := n.Analyze("traffic", t0, t0.Add(3*time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(windows))
	}
	if windows[0].Avg() != 15 { // readings 10, 20 in the first hour
		t.Errorf("first window avg = %v, want 15", windows[0].Avg())
	}
	if _, err := n.Analyze("traffic", t0, t0.Add(time.Hour), 0); err == nil {
		t.Error("expected error for zero window")
	}
}

func TestHandleBatchAndQuery(t *testing.T) {
	n := newCloud(t)
	payload, err := protocol.EncodeBatchPayload(trafficBatch("fog2/d01", t0, 42), aggregate.CodecZip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(context.Background(), transport.Message{
		From: "fog2/d01", Kind: transport.KindBatch, Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}

	req, _ := protocol.EncodeJSON(protocol.QueryRequest{
		TypeName: "traffic", FromUnix: t0.Add(-time.Hour).UnixNano(), ToUnix: t0.Add(time.Hour).UnixNano(),
	})
	reply, err := n.Handle(context.Background(), transport.Message{Kind: transport.KindQuery, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || len(resp.Readings) != 1 || resp.Readings[0].Value != 42 {
		t.Errorf("resp = %+v", resp)
	}

	// Latest by sensor.
	req, _ = protocol.EncodeJSON(protocol.QueryRequest{SensorID: "fog2/d01/traffic/a"})
	reply, err = n.Handle(context.Background(), transport.Message{Kind: transport.KindQuery, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = protocol.DecodeQueryPage(reply)
	if !resp.Found {
		t.Error("latest by sensor not found")
	}

	// Status control.
	req, _ = protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	reply, err = n.Handle(context.Background(), transport.Message{Kind: transport.KindControl, Payload: req})
	if err != nil {
		t.Fatal(err)
	}
	var st protocol.StatusResponse
	if err := protocol.DecodeJSON(reply, &st); err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "cloud" {
		t.Errorf("status = %+v", st)
	}
}

func TestHandleErrors(t *testing.T) {
	n := newCloud(t)
	cases := []transport.Message{
		{Kind: transport.KindBatch, Payload: []byte("junk")},
		{Kind: transport.KindQuery, Payload: []byte("junk")},
		{Kind: transport.KindQuery, Payload: []byte(`{}`)},
		{Kind: transport.KindControl, Payload: []byte("junk")},
		{Kind: transport.KindControl, Payload: []byte(`{"op":"flush"}`)},
		{Kind: "nope"},
	}
	for i, msg := range cases {
		if _, err := n.Handle(context.Background(), msg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must fail")
	}
}

func TestOpenDataAPI(t *testing.T) {
	n := newCloud(t)
	_ = n.Preserve(trafficBatch("fog2/d01", t0, 50, 60), "fog2/d01")
	_ = n.Preserve(trafficBatch("fog2/d01", t0.Add(90*time.Minute), 70), "fog2/d01")
	srv := httptest.NewServer(n.OpenDataHandler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/opendata/v1/categories")
	if resp.StatusCode != 200 {
		t.Fatalf("categories status = %d", resp.StatusCode)
	}
	var cats []struct {
		Name    string `json:"name"`
		Records int    `json:"records"`
	}
	if err := json.Unmarshal(body, &cats); err != nil {
		t.Fatal(err)
	}
	if len(cats) != 5 {
		t.Errorf("categories = %d, want 5", len(cats))
	}
	urbanRecords := 0
	for _, c := range cats {
		if c.Name == "urban" {
			urbanRecords = c.Records
		}
	}
	if urbanRecords != 2 {
		t.Errorf("urban records = %d, want 2", urbanRecords)
	}

	resp, body = get("/opendata/v1/days")
	var days []string
	if err := json.Unmarshal(body, &days); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || len(days) != 1 || days[0] != "2017-06-01" {
		t.Errorf("days = %v (status %d)", days, resp.StatusCode)
	}

	// Each route with its status, the length of the JSON array it
	// answers (-1: not an array) and, for a summary, the first
	// window's count. The second batch lies outside the bounded range.
	bounded := fmt.Sprintf("fromUnixNano=%d&toUnixNano=%d", t0.UnixNano(), t0.Add(time.Hour).UnixNano())
	for _, tc := range []struct {
		path   string
		status int
		n      int
		first  int64
	}{
		{"/opendata/v1/types/traffic/readings", 200, 3, 0},
		{"/opendata/v1/types/traffic/readings?" + bounded, 200, 2, 0},
		{"/opendata/v1/types/traffic/summary?windowSeconds=3600", 200, 2, 2},
		{"/opendata/v1/types/traffic/summary?windowSeconds=3600&" + bounded, 200, 1, 2},
		{"/opendata/v1/status", 200, -1, 0},
		// Privacy: people_flow is restricted, not public.
		{"/opendata/v1/types/people_flow/readings", http.StatusForbidden, -1, 0},
		{"/opendata/v1/types/traffic/readings?fromUnixNano=zzz", http.StatusBadRequest, -1, 0},
		{"/opendata/v1/types/traffic/summary?windowSeconds=-5", http.StatusBadRequest, -1, 0},
		{"/opendata/v1/nope", http.StatusNotFound, -1, 0},
	} {
		resp, body := get(tc.path)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
			continue
		}
		if tc.n < 0 {
			continue
		}
		var windows []aggregate.WindowSummary // readings decode too: only the length is read
		if err := json.Unmarshal(body, &windows); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(windows) != tc.n || (tc.first > 0 && windows[0].Count != tc.first) {
			t.Errorf("%s: %d entries %+v, want %d (first window count %d)", tc.path, len(windows), windows, tc.n, tc.first)
		}
	}

	// Empty results are JSON arrays, not null.
	_, body = get("/opendata/v1/types/weather/readings")
	if string(body) != "[]\n" {
		t.Errorf("empty readings body = %q, want []", body)
	}
}

// TestConcurrentDuplicateDeliveryArchivedOnce: a timed-out send's retry
// can overlap its still-running original, so N copies of one sealed
// envelope arrive at once. Exactly one may be archived; the others are
// acknowledged as duplicates.
func TestConcurrentDuplicateDeliveryArchivedOnce(t *testing.T) {
	n := newCloud(t)
	// A fat batch keeps each copy inside the preserve long enough for
	// the others to arrive.
	const readings, copies = 2000, 8
	vals := make([]float64, readings)
	for i := range vals {
		vals[i] = float64(i)
	}
	payload, err := (&protocol.Sealer{}).SealSeq(nil, trafficBatch("fog2/d01", t0, vals...), aggregate.CodecZip, 41)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < copies; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			msg := transport.Message{From: "fog2/d01", Kind: transport.KindBatch, Payload: payload}
			if _, err := n.Handle(context.Background(), msg); err != nil {
				t.Errorf("copy rejected: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := n.Archive().Stats().Readings; got != readings {
		t.Errorf("archived %d readings, want %d: a duplicate was preserved", got, readings)
	}
	if got := len(n.Historical("traffic", t0.Add(-time.Hour), t0.Add(time.Hour))); got != readings {
		t.Errorf("query series holds %d readings, want %d", got, readings)
	}
	if got := n.DuplicateBatches(); got != copies-1 {
		t.Errorf("DuplicateBatches = %d, want %d", got, copies-1)
	}
}
