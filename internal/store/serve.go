package store

import (
	"fmt"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// Page serves one bounded page of a range read from s: at most
// min(limit, protocol.DefaultPageLimit) readings plus the cursor
// resuming the scan, so a read over a whole tier streams instead of
// materializing one unbounded response.
func Page(s Series, typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	if limit <= 0 || limit > protocol.DefaultPageLimit {
		limit = protocol.DefaultPageLimit
	}
	return s.QueryRangePage(typeName, from, to, limit, cursor)
}

// Serve is every tier's read handler over its series. A KindSummary
// request is answered with the decomposable summary of the range. A
// KindQuery request is answered with a binary page: a one-reading page
// for a latest lookup, or one Page of a range scan plus its resume
// cursor, compressed with codec on the sealed-batch wire path.
func Serve(s Series, nodeID string, codec aggregate.Codec, kind transport.Kind, payload []byte) ([]byte, error) {
	if kind == transport.KindSummary {
		var req protocol.SummaryRequest
		if err := protocol.DecodeJSON(payload, &req); err != nil {
			return nil, err
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		from, to := req.Range()
		return protocol.EncodeJSON(protocol.SummaryResponse{Summary: aggregate.Summarize(s.QueryRange(req.TypeName, from, to))})
	}
	var req protocol.QueryRequest
	if err := protocol.DecodeJSON(payload, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var page protocol.QueryPage
	if req.SensorID != "" {
		if r, ok := s.Latest(req.SensorID); ok {
			page.Found = true
			page.Readings = []model.Reading{r}
		}
	} else {
		from, to := req.Range()
		readings, next, err := Page(s, req.TypeName, from, to, req.Limit, req.Cursor)
		if err != nil {
			return nil, fmt.Errorf("%s: query: %w", nodeID, err)
		}
		page.Readings = readings
		page.NextCursor = next
		page.Found = len(readings) > 0 || next != ""
	}
	return protocol.EncodeQueryPage(nodeID, page, codec)
}
