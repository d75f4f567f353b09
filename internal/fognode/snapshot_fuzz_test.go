package fognode

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// genShardState derives a random-but-valid delivery state from a seed:
// per-type retry queues of sealed batches plus pending buffers, with
// field values chosen to round-trip the sensor wire text exactly
// (bounded strings without delimiter bytes, 5-decimal coordinates,
// integral values).
func genShardState(seed int64) (shards []pendingShard, seqCounter uint64, marks map[string][]uint64, subs []cq.SubSnapshot) {
	rng := rand.New(rand.NewSource(seed))
	shards = newPendingShards()
	seqCounter = uint64(rng.Int63())
	types := []string{"traffic", "noise_level", "air_quality", "parking"}

	genBatch := func(typ string, n int) *model.Batch {
		b := &model.Batch{
			NodeID:    "fog1/fuzz",
			TypeName:  typ,
			Category:  model.CategoryUrban,
			Collected: time.Unix(0, rng.Int63()),
		}
		for i := 0; i < n; i++ {
			b.Readings = append(b.Readings, model.Reading{
				SensorID: typ + "/" + string(rune('a'+rng.Intn(26))),
				TypeName: typ,
				Category: model.CategoryUrban,
				Time:     time.Unix(0, rng.Int63()),
				Value:    float64(rng.Intn(1 << 20)),
				Unit:     "u",
				Location: model.GeoPoint{
					Lat: float64(rng.Intn(9_000_000)) / 1e5,
					Lon: float64(rng.Intn(18_000_000)) / 1e5,
				},
			})
		}
		return b
	}
	for _, typ := range types[:1+rng.Intn(len(types))] {
		// Route types to shards exactly like the node would.
		target := &shards[shardIndex(typ, len(shards))]
		for g := 0; g < rng.Intn(4); g++ {
			target.box(typ).put(item{
				kind: transport.KindBatch,
				b:    genBatch(typ, 1+rng.Intn(5)),
				seq:  uint64(rng.Int63()) | 1,
			})
		}
		if rng.Intn(2) == 0 {
			target.pending[typ] = genBatch(typ, 1+rng.Intn(5))
		}
	}
	marks = make(map[string][]uint64)
	for o := 0; o < rng.Intn(4); o++ {
		origin := "origin-" + string(rune('a'+o))
		for m := 0; m < 1+rng.Intn(6); m++ {
			marks[origin] = append(marks[origin], uint64(rng.Int63())|1)
		}
	}
	// Queued continuous-query alert pushes (valid per the wire codec)
	// and subscription snapshots.
	for _, typ := range types[:rng.Intn(len(types))] {
		target := &shards[shardIndex(typ, len(shards))]
		for p := 0; p < 1+rng.Intn(3); p++ {
			push := protocol.AlertPush{
				Origin:   "fog1/fuzz",
				Seq:      uint64(rng.Int63()) | 1,
				TypeName: typ,
				Category: model.CategoryUrban.String(),
			}
			for a := 0; a < 1+rng.Intn(3); a++ {
				start := rng.Int63n(1 << 40)
				push.Alerts = append(push.Alerts, protocol.Alert{
					SubID:     "sub-" + string(rune('a'+a)),
					FiredBy:   "fog1/fuzz",
					Kind:      protocol.AlertKindWindow,
					StartUnix: start,
					EndUnix:   start + 1 + rng.Int63n(1<<20),
					Summary:   aggregate.Summary{Count: 1 + int64(rng.Intn(100)), Sum: float64(rng.Intn(1000)), Min: 1, Max: 2},
					Value:     float64(rng.Intn(100)),
				})
			}
			payload, err := protocol.EncodeAlertPush(&push)
			if err != nil {
				panic(err)
			}
			target.box(typ).put(item{kind: transport.KindAlertPush, origin: push.Origin, seq: push.Seq, payload: payload})
		}
	}
	for s := 0; s < rng.Intn(3); s++ {
		subs = append(subs, cq.SubSnapshot{
			Sub: cq.Subscription{
				ID:       "sub-" + string(rune('a'+s)),
				TypeName: types[rng.Intn(len(types))],
				Kind:     cq.KindWindow,
				Window:   time.Duration(1+rng.Intn(60)) * time.Minute,
			},
			Category:  model.CategoryUrban.String(),
			Panes:     []cq.Pane{{Start: rng.Int63n(1 << 40), Summary: aggregate.Summary{Count: 3, Sum: 6, Min: 1, Max: 3}}},
			Emitted:   []int64{rng.Int63n(1 << 40)},
			Watermark: rng.Int63n(1 << 40),
		})
	}
	// The degrade tier: an unsealed degrade buffer and parked summary
	// pushes.
	for _, typ := range types[:rng.Intn(len(types))] {
		target := &shards[shardIndex(typ, len(shards))]
		buf := target.degradeBufLocked(typ, model.CategoryUrban)
		for w := 0; w < 1+rng.Intn(3); w++ {
			buf.windows[int64(w)*int64(time.Minute)] = aggregate.Summary{Count: 1 + int64(rng.Intn(9)), Sum: float64(rng.Intn(100)), Min: 1, Max: 9}
		}
		if rng.Intn(2) == 0 {
			doc, err := protocol.EncodeJSON(buf.push("fog1/fuzz", uint64(rng.Int63())|1, typ))
			if err != nil {
				panic(err)
			}
			_, it, err := pushItem(transport.KindSummaryPush, doc)
			if err != nil {
				panic(err)
			}
			target.box(typ).put(it)
		}
	}
	return shards, seqCounter, marks, subs
}

// shardIndex mirrors Node.shardFor without a node.
func shardIndex(typ string, n int) int {
	var h uint32 = 2166136261
	for i := 0; i < len(typ); i++ {
		h ^= uint32(typ[i])
		h *= 16777619
	}
	return int(h) & (n - 1)
}

// FuzzSnapshotRoundTrip proves the snapshot codec is lossless over the
// delivery state and size-bounded, and that decoding arbitrary bytes
// never panics.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(42), []byte{journalVersion})
	f.Add(int64(7), []byte{journalVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x80})
	f.Add(int64(1234567), []byte("garbage snapshot bytes"))
	// Snapshots of the earlier layouts still decode.
	f.Add(int64(3), []byte{1})
	f.Add(int64(4), []byte{2})
	f.Add(int64(5), legacySnapshot(f, "fog1/fuzz"))

	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		// Arbitrary bytes: must error or succeed, never panic.
		if err := decodeNodeSnapshot(raw, newRecoveryState()); err != nil {
			_ = err
		}

		shards, seqCounter, marks, subs := genShardState(seed)
		data, err := encodeNodeSnapshot(nil, seqCounter, marks, shards, subs)
		if err != nil {
			t.Fatalf("encode of a well-formed state failed: %v", err)
		}

		// Size bound: header + marks + per-entry overhead + readings +
		// cq sections.
		readings, entries, markCount, pushes, instances := 0, 0, 0, 0, 0
		for i := range shards {
			for _, q := range shards[i].outbox {
				for _, it := range q.items {
					if it.b != nil {
						entries++
						readings += len(it.b.Readings)
					} else if it.kind == transport.KindAlertPush {
						pushes++
						instances += len(mustDecodeAlertPush(t, it.payload).Alerts)
					} else {
						pushes++
						instances += 3 // windows
					}
				}
			}
			for _, b := range shards[i].pending {
				entries++
				readings += len(b.Readings)
			}
			pushes += len(shards[i].degraded)
			instances += 3 * len(shards[i].degraded)
		}
		for _, seqs := range marks {
			markCount += len(seqs)
		}
		bound := 64 + 64*len(marks) + 16*markCount + 128*entries + 160*readings +
			128*pushes + 160*instances + 1024*len(subs)
		if len(data) > bound {
			t.Fatalf("snapshot size %d exceeds bound %d (%d entries, %d readings, %d marks)",
				len(data), bound, entries, readings, markCount)
		}

		rs := newRecoveryState()
		if err := decodeNodeSnapshot(data, rs); err != nil {
			t.Fatalf("decode of a well-formed snapshot failed: %v", err)
		}
		if !rs.sawSeq || rs.seqCounter < seqCounter {
			t.Fatalf("seq counter = %d (saw=%v), want >= %d", rs.seqCounter, rs.sawSeq, seqCounter)
		}

		// Marks: same multiset per origin, in order.
		got := make(map[string][]uint64)
		for _, m := range rs.marks {
			got[m.origin] = append(got[m.origin], m.seq)
		}
		for origin, want := range marks {
			if len(got[origin]) != len(want) {
				t.Fatalf("origin %s: %d marks, want %d", origin, len(got[origin]), len(want))
			}
			for i := range want {
				if got[origin][i] != want[i] {
					t.Fatalf("origin %s mark %d = %d, want %d", origin, i, got[origin][i], want[i])
				}
			}
		}

		// Delivery state: per type, group sequences + readings and the
		// pending buffer must round-trip exactly.
		for i := range shards {
			sh := &shards[i]
			// Outboxes: every queued item must recover at its queue
			// position under its (kind, seq), batches with their
			// readings and alert pushes with their instances intact.
			for typ, q := range sh.outbox {
				tr := rs.types[typ]
				if tr == nil || len(tr.items) != len(q.items) {
					t.Fatalf("type %s: recovered %v items, want %d", typ, tr, len(q.items))
				}
				for gi, want := range q.items {
					got := tr.items[gi]
					if got.kind != want.kind || got.seq != want.seq {
						t.Fatalf("type %s item %d = (%s, %d), want (%s, %d)", typ, gi, got.kind, got.seq, want.kind, want.seq)
					}
					if want.b != nil {
						assertSameReadings(t, typ, got.b.Readings, want.b.Readings)
					} else if want.kind == transport.KindSummaryPush {
						if got.origin != want.origin || !bytes.Equal(got.payload, want.payload) {
							t.Fatalf("type %s summary push %d: payload %s, want %s", typ, want.seq, got.payload, want.payload)
						}
					} else if g, w := mustDecodeAlertPush(t, got.payload), mustDecodeAlertPush(t, want.payload); g.Origin != w.Origin || len(g.Alerts) != len(w.Alerts) {
						t.Fatalf("type %s push %d: origin %s with %d alerts, want %s with %d", typ, want.seq, g.Origin, len(g.Alerts), w.Origin, len(w.Alerts))
					}
				}
			}
			for typ, p := range sh.pending {
				tr := rs.types[typ]
				if tr == nil || tr.pending == nil {
					t.Fatalf("type %s: pending buffer lost", typ)
				}
				assertSameReadings(t, typ, tr.pending.Readings, p.Readings)
			}
			for typ, buf := range sh.degraded {
				tr := rs.types[typ]
				if tr == nil || tr.degraded == nil || tr.degraded.category != buf.category || len(tr.degraded.windows) != len(buf.windows) {
					t.Fatalf("type %s: degrade buffer lost or reshaped", typ)
				}
				for ws, want := range buf.windows {
					if got := tr.degraded.windows[ws]; got != want {
						t.Fatalf("type %s degrade window %d = %+v, want %+v", typ, ws, got, want)
					}
				}
			}
		}
		if len(rs.snapSubs) != len(subs) {
			t.Fatalf("recovered %d subscriptions, want %d", len(rs.snapSubs), len(subs))
		}
		for i := range subs {
			if rs.snapSubs[i].Sub != subs[i].Sub {
				t.Fatalf("subscription %d = %+v, want %+v", i, rs.snapSubs[i].Sub, subs[i].Sub)
			}
			if rs.snapSubs[i].Watermark != subs[i].Watermark || len(rs.snapSubs[i].Panes) != len(subs[i].Panes) {
				t.Fatalf("subscription %d state mismatch: %+v vs %+v", i, rs.snapSubs[i], subs[i])
			}
		}
	})
}

func mustDecodeAlertPush(t *testing.T, payload []byte) *protocol.AlertPush {
	t.Helper()
	p, err := protocol.DecodeAlertPush(payload)
	if err != nil {
		t.Fatalf("queued alert push does not decode: %v", err)
	}
	return p
}

func assertSameReadings(t *testing.T, typ string, got, want []model.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("type %s: %d readings, want %d", typ, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.SensorID != w.SensorID || !g.Time.Equal(w.Time) || g.Value != w.Value ||
			g.Unit != w.Unit || g.Location != w.Location {
			t.Fatalf("type %s reading %d = %+v, want %+v", typ, i, g, w)
		}
	}
}
