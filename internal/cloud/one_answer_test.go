package cloud

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"f2c/internal/model"
	"f2c/internal/sim"
)

// TestOneAnswerPerCloud: after a data-destruction cutoff, every read
// path of one cloud gives the same answer on either backend — the
// open-data page walk (a small limit, X-Next-Cursor to the end) equals
// Historical over the same range, and on the in-RAM cloud, whose cut
// is exact, both equal the archive's reading count. The segment store
// drops whole segments only, so there a cutoff inside the memtable
// destroys nothing the series serves; the two paths must still agree.
func TestOneAnswerPerCloud(t *testing.T) {
	for _, tc := range []struct {
		name    string
		open    func(t *testing.T) *Node
		exactly bool // destruction is exact: reads match the archive
	}{
		{"ram", func(t *testing.T) *Node {
			n, err := New(Config{ID: "cloud", Clock: sim.NewVirtualClock(c0)})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}, true},
		{"segment", func(t *testing.T) *Node { return newDurableCloud(t, t.TempDir()) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.open(t)
			if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2, 3, 4), "fog2/d01"); err != nil {
				t.Fatal(err)
			}
			if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0.Add(2*time.Hour), 5, 6, 7), "fog2/d01"); err != nil {
				t.Fatal(err)
			}
			if destroyed, err := n.Expire(c0.Add(time.Hour)); err != nil || destroyed != 1 {
				t.Fatalf("expired %d records (%v), want 1", destroyed, err)
			}

			from, to := c0.Add(-time.Hour), c0.Add(3*time.Hour)
			historical := n.Historical("traffic", from, to)
			walked := walkOpenData(t, n, "traffic", from, to, 2)
			if len(walked) != len(historical) {
				t.Fatalf("open data serves %d readings, Historical %d", len(walked), len(historical))
			}
			for i := range walked {
				if walked[i].SensorID != historical[i].SensorID || walked[i].Value != historical[i].Value || !walked[i].Time.Equal(historical[i].Time) {
					t.Fatalf("reading %d: open data %+v, Historical %+v", i, walked[i], historical[i])
				}
			}
			if archived := n.Archive().Stats().Readings; tc.exactly && int64(len(historical)) != archived {
				t.Errorf("Historical and open data serve %d readings, the archive holds %d", len(historical), archived)
			}
		})
	}
}

// walkOpenData pages /opendata/v1/types/{typ}/readings with limit,
// following X-Next-Cursor to the end.
func walkOpenData(t *testing.T, n *Node, typ string, from, to time.Time, limit int) []model.Reading {
	t.Helper()
	srv := httptest.NewServer(n.OpenDataHandler())
	defer srv.Close()
	var all []model.Reading
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("open-data walk never ended")
		}
		q := url.Values{
			"fromUnixNano": {fmt.Sprint(from.UnixNano())}, "toUnixNano": {fmt.Sprint(to.UnixNano())},
			"limit": {fmt.Sprint(limit)}, "cursor": {cursor},
		}
		resp, err := srv.Client().Get(srv.URL + "/opendata/v1/types/" + typ + "/readings?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		var page []model.Reading
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("page %d: status %d, %v", pages, resp.StatusCode, err)
		}
		if len(page) > limit {
			t.Fatalf("page %d carries %d readings, limit %d", pages, len(page), limit)
		}
		all = append(all, page...)
		if cursor = resp.Header.Get("X-Next-Cursor"); cursor == "" {
			return all
		}
	}
}
