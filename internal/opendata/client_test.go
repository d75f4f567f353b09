// Package opendata holds the consumer-side acceptance tests of the
// cloud's data-dissemination interface: a civic application's view of
// the open-data HTTP API over a real listener, decoding the documented
// JSON shapes (categories, days, readings, windowed summaries) and the
// refusals (403 on a privacy-restricted type, 404 on an unknown route).
// There is no SDK to import; a consumer speaks plain HTTP, as
// examples/opendata does.
package opendata

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/model"
	"f2c/internal/sim"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func server(t *testing.T) (*cloud.Node, *httptest.Server) {
	t.Helper()
	cl, err := cloud.New(cloud.Config{ID: "cloud", City: "bcn", Clock: sim.NewVirtualClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cl.OpenDataHandler())
	t.Cleanup(srv.Close)
	return cl, srv
}

func populate(t *testing.T, cl *cloud.Node) {
	t.Helper()
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Duration(i*30) * time.Minute)
		b := &model.Batch{
			NodeID: "fog2/d01", TypeName: "weather", Category: model.CategoryUrban, Collected: at,
			Readings: []model.Reading{{
				SensorID: "w1", TypeName: "weather", Category: model.CategoryUrban,
				Time: at, Value: float64(1000 + i), Unit: "hPa",
			}},
		}
		if err := cl.Preserve(b, "fog2/d01"); err != nil {
			t.Fatal(err)
		}
	}
}

// get fetches path from the server and, on HTTP 200, decodes the JSON
// body into out. It returns the status code.
func get(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", path, err, body)
		}
	}
	return resp.StatusCode
}

// rangeQuery renders the optional fromUnixNano/toUnixNano parameters;
// a zero bound is left out, which the server reads as unbounded.
func rangeQuery(from, to time.Time) url.Values {
	q := url.Values{}
	if !from.IsZero() {
		q.Set("fromUnixNano", fmt.Sprint(from.UnixNano()))
	}
	if !to.IsZero() {
		q.Set("toUnixNano", fmt.Sprint(to.UnixNano()))
	}
	return q
}

func TestClientEndToEnd(t *testing.T) {
	cl, srv := server(t)
	populate(t, cl)

	var cats []struct {
		Name    string `json:"name"`
		Records int    `json:"records"`
	}
	if st := get(t, srv, "/opendata/v1/categories", &cats); st != http.StatusOK {
		t.Fatalf("categories: HTTP %d", st)
	}
	if len(cats) != 5 {
		t.Errorf("categories = %d", len(cats))
	}

	var days []string
	if st := get(t, srv, "/opendata/v1/days", &days); st != http.StatusOK {
		t.Fatalf("days: HTTP %d", st)
	}
	if len(days) != 1 || days[0] != "2017-06-01" {
		t.Errorf("days = %v", days)
	}

	var readings []model.Reading
	path := "/opendata/v1/types/weather/readings?" + rangeQuery(t0, t0.Add(time.Hour)).Encode()
	if st := get(t, srv, path, &readings); st != http.StatusOK {
		t.Fatalf("readings: HTTP %d", st)
	}
	if len(readings) != 3 { // 0, 30, 60 minutes
		t.Errorf("readings = %d, want 3", len(readings))
	}

	// Unbounded range.
	readings = nil
	if st := get(t, srv, "/opendata/v1/types/weather/readings", &readings); st != http.StatusOK {
		t.Fatalf("unbounded readings: HTTP %d", st)
	}
	if len(readings) != 4 {
		t.Errorf("unbounded readings = %d, want 4", len(readings))
	}

	var windows []aggregate.WindowSummary
	q := rangeQuery(t0, t0.Add(2*time.Hour))
	q.Set("windowSeconds", fmt.Sprint(int64(time.Hour/time.Second)))
	if st := get(t, srv, "/opendata/v1/types/weather/summary?"+q.Encode(), &windows); st != http.StatusOK {
		t.Fatalf("summary: HTTP %d", st)
	}
	if len(windows) != 2 || windows[0].Count != 2 {
		t.Errorf("windows = %+v", windows)
	}
}

func TestClientForbidden(t *testing.T) {
	_, srv := server(t)
	if st := get(t, srv, "/opendata/v1/types/people_flow/readings", nil); st != http.StatusForbidden {
		t.Errorf("people_flow readings: HTTP %d, want %d", st, http.StatusForbidden)
	}
}

func TestClientBadStatus(t *testing.T) {
	_, srv := server(t)
	// A bogus path under the handler returns 404.
	if st := get(t, srv, "/opendata/v1/nope", nil); st != http.StatusNotFound {
		t.Errorf("unknown route: HTTP %d, want %d", st, http.StatusNotFound)
	}
}
