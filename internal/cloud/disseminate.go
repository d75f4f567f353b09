package cloud

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/describe"
	"f2c/internal/model"
)

// OpenDataHandler implements the data-dissemination phase: a public
// read-only HTTP interface over the cloud archive, in the spirit of
// Barcelona's Sentilo open-data platform. Restricted/personal data
// (per the description phase's privacy tagging) is not disseminated.
//
// Routes:
//
//	GET /opendata/v1/categories
//	GET /opendata/v1/days
//	GET /opendata/v1/types/{type}/readings?fromUnixNano=&toUnixNano=&limit=&cursor=
//	GET /opendata/v1/types/{type}/summary?fromUnixNano=&toUnixNano=&windowSeconds=
//	GET /opendata/v1/status
//
// Readings are served in bounded pages from the cloud's one query
// series — the same store Historical and KindQuery read, so open data
// and the query path give one answer: limit caps the readings per
// response (clamped to the node's page limit) and the X-Next-Cursor
// response header resumes the scan. Categories and days come from the
// archive's classification indexes.
func (n *Node) OpenDataHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /opendata/v1/categories", n.serveCategories)
	mux.HandleFunc("GET /opendata/v1/days", n.serveDays)
	mux.HandleFunc("GET /opendata/v1/types/{type}/readings", n.serveReadings)
	mux.HandleFunc("GET /opendata/v1/types/{type}/summary", n.serveSummary)
	mux.HandleFunc("GET /opendata/v1/status", n.serveStatus)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// disseminable reports whether a sensor type may be published.
func disseminable(typeName string) bool {
	return describe.PrivacyFor(typeName) == describe.PrivacyPublic
}

func (n *Node) serveCategories(w http.ResponseWriter, _ *http.Request) {
	type catInfo struct {
		Name    string `json:"name"`
		Records int    `json:"records"`
	}
	out := make([]catInfo, 0, 5)
	for _, c := range model.Categories() {
		out = append(out, catInfo{Name: c.String(), Records: len(n.archive.ByCategory(c))})
	}
	writeJSON(w, out)
}

func (n *Node) serveDays(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, n.archive.Days())
}

func parseRange(r *http.Request) (from, to time.Time, err error) {
	parse := func(key string, def int64) (int64, error) {
		s := r.URL.Query().Get(key)
		if s == "" {
			return def, nil
		}
		return strconv.ParseInt(s, 10, 64)
	}
	fromNs, err := parse("fromUnixNano", 0)
	if err != nil {
		return from, to, err
	}
	toNs, err := parse("toUnixNano", time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	if err != nil {
		return from, to, err
	}
	return time.Unix(0, fromNs), time.Unix(0, toNs), nil
}

func (n *Node) serveReadings(w http.ResponseWriter, r *http.Request) {
	typeName := r.PathValue("type")
	if !disseminable(typeName) {
		http.Error(w, "type is not public open data", http.StatusForbidden)
		return
	}
	from, to, err := parseRange(r)
	if err != nil {
		http.Error(w, "bad time range: "+err.Error(), http.StatusBadRequest)
		return
	}
	limit := 0 // HistoricalPage clamps to the node's page limit
	if s := r.URL.Query().Get("limit"); s != "" {
		if limit, err = strconv.Atoi(s); err != nil || limit <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	readings, next, err := n.HistoricalPage(typeName, from, to, limit, r.URL.Query().Get("cursor"))
	if err != nil {
		http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
		return
	}
	if readings == nil {
		readings = []model.Reading{}
	}
	if next != "" {
		w.Header().Set("X-Next-Cursor", next)
	}
	writeJSON(w, readings)
}

func (n *Node) serveSummary(w http.ResponseWriter, r *http.Request) {
	typeName := r.PathValue("type")
	if !disseminable(typeName) {
		http.Error(w, "type is not public open data", http.StatusForbidden)
		return
	}
	from, to, err := parseRange(r)
	if err != nil {
		http.Error(w, "bad time range: "+err.Error(), http.StatusBadRequest)
		return
	}
	windowSeconds := int64(3600)
	if s := r.URL.Query().Get("windowSeconds"); s != "" {
		windowSeconds, err = strconv.ParseInt(s, 10, 64)
		if err != nil || windowSeconds <= 0 {
			http.Error(w, "bad windowSeconds", http.StatusBadRequest)
			return
		}
	}
	windows, err := n.Analyze(typeName, from, to, time.Duration(windowSeconds)*time.Second)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if windows == nil {
		windows = []aggregate.WindowSummary{}
	}
	writeJSON(w, windows)
}

func (n *Node) serveStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, n.Status())
}
