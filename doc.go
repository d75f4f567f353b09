// Package f2c is a fog-to-cloud (F2C) data-management system for
// smart cities, reproducing "A Novel Architecture for Efficient Fog to
// Cloud Data Management in Smart Cities" (Sinaeepourfard, Garcia,
// Masip-Bruin, Marin-Tordera — ICDCS 2017).
//
// The library assembles a hierarchical city deployment — many fog
// layer-1 nodes (one per city section), fog layer-2 nodes (one per
// district) and a cloud — and maps the SCC-DLC data life cycle onto
// it: acquisition (collection, redundant-data elimination, quality,
// description) at fog layer 1, temporal storage with retention at the
// fog layers, and classification, permanent archiving and open-data
// dissemination at the cloud.
//
// The upward data path is concurrent and sharded end to end: each fog
// node runs its acquisition pipeline (dedup, then quality) over
// hash-sharded per-type buffers (concurrent ingests of different
// sensor types never contend), flushes move batches upward through a
// bounded worker pool, and system-wide drains (FlushAll, Close)
// operate on the nodes of a layer in parallel under a concurrency
// bound, layer 1 before layer 2. See README.md for the full
// architecture and the tuning knobs (FlushWorkers, FlushConcurrency).
//
// The seal/open wire path (encode -> compress -> envelope and back)
// is amortized zero-allocation under steady load: codec encoder and
// inflater state is pooled and reset between batches
// (aggregate.AppendCompress/AppendDecompress), batch encoding and
// envelope sealing append into reused buffers
// (sensor.AppendBatch, protocol.Sealer), decoding parses the payload
// in place with per-batch string interning, and every fog-node flush
// worker reuses a scratch struct across flushes. The text codec's
// numbers take exact integer fast paths with strconv as the fallback
// (fixed-precision coordinates would otherwise go through strconv's
// multi-precision decimal on every reading); the bytes written and the
// values read are strconv's, bit for bit. Decompression is
// bounded (aggregate.SizeLimitError) so corrupt or hostile payloads
// cannot exhaust memory. Benchmarks: BenchmarkSealBatch,
// BenchmarkOpenBatch (internal/protocol), BenchmarkFlushHot
// (internal/fognode); the benchmark in bench/ (go -C bench run .)
// states the same path's end-to-end cost per layer.
//
// The read path is federated through a hierarchical query engine
// (internal/query). A tier-routing planner orders fog layer 1 (local
// store, then sibling nodes), fog layer 2 (the parent district) and
// the cloud, pruning tiers whose retention window cannot hold the
// requested range and stopping at the first tier authoritative for
// it; sibling probes scatter-gather concurrently with
// first-useful-result cancellation. Range results stream in bounded
// binary pages (protocol.QueryPage, limit/cursor on
// protocol.QueryRequest), so no response materializes more than
// protocol.DefaultPageLimit readings. A page carries the readings'
// columnar encoding, exact to the flushes' text wire, compressed at
// flate.BestSpeed whatever codec the deployment seals upward with,
// because it is encoded and decoded on the read's critical path. Aggregate
// queries (count/mean/min/max over a type range) push down to the
// owning tier as decomposable summaries and merge at the requester —
// only summary-sized payloads cross the WAN.
// Benchmarks: BenchmarkQueryFanout, BenchmarkQueryPushdown
// (internal/query).
//
// Both paths are failure-hardened. transport.SimNetwork carries a
// schedulable fault plane (directed partitions and heals, node
// crash/restart, latency spikes, lost acknowledgements) driven by the
// simulation clock. Delivery survives it, by one mechanism: whatever
// a fog node sends upward — raw batches, degrade summaries,
// continuous-query alerts — is sealed into an item under a frozen
// delivery identity (origin, seq; sealed envelope v2), queued on its
// sensor type's outbox, sent at least once in queue order by the one
// send path, and removed only when acknowledged; what differs per
// kind is a table (rank within a type, relay eligibility, overflow
// policy). Receivers dedupe at-least-once replays with one atomic
// check-and-mark on a bounded protocol.ReplayFilter, parent re-probes
// are gated by jittered exponential backoff, and after repeated
// failures batches fail over through sibling fog nodes
// (transport.KindRelay) with origin identity intact.
// MaxPendingReadings bounds outage buffering, with
// shed readings counted (Node.DroppedDuringOutage) rather than lost
// silently; federated reads skip unreachable tiers and flag partial
// results (query.Engine.RangeDetailed, AggregateDetailed). The
// internal/chaos harness, chaos.Run(seed), draws a profile (storage,
// buffer bound, reply loss, elastic ownership) and a
// per-tick fault mix from one seed over a full city, and asserts
// exactly-once preservation, the conservation ledger, bounded memory,
// post-heal convergence and the alert ledger on every profile; a
// failing run prints the command that reruns its seed
// (go test ./internal/chaos/ -chaos.seeds N runs seeds 1..N; see
// README "Resilience & chaos testing").
//
// Durability (a data dir; the library default is in-memory) makes
// those guarantees survive process death. A durable node journals its delivery state to an
// append-only, CRC-framed write-ahead log with generation-rotated
// snapshots (internal/wal) — one seal -> commit record pair for every
// item, whatever its kind — and recovers it at construction:
// outboxes with frozen delivery identities, pending and degrade
// buffers, the sequence counter, and the replay-filter marks that
// dedupe retried deliveries across the restart; the cloud journals
// and recovers its archive, alert instances and degraded windows. Fog
// and cloud share one receive-side durable core (internal/durable):
// journal, segment store, acceptance path and recovery driver. Replay
// is torn-write safe (recovery
// truncates the corrupt tail back to the last intact record),
// snapshots rotate atomically, and recovery ordering is snapshot,
// then log tail, each record applied through the transition the live
// path runs, then the fog cq settle. Enable per node (fognode/cloud Config.Durability), per
// system (core.Options.DataDir, one journal directory per node id),
// or with f2cd -data-dir; core.System.Reboot simulates a process
// restart, and every data-dir chaos run reboots its crash victims
// from disk and asserts the same ledger through crashes at every tier (see README "Durability & recovery";
// BenchmarkIngestWAL measures the overhead).
//
// Tiered segment storage (internal/segment) bounds the memory of the temporal stores themselves: an LSM-lite engine
// with a memtable in front of immutable,
// time-partitioned segment files of columnar-compressed blocks,
// served by mmap behind a sparse (type, time) index. Memtable
// flushes, background compaction of small segments, and
// whole-segment retention drops are coordinated through a crash-safe
// manifest. The node journal is the store's only log, so reboot
// recovery composes with it: segments from the manifest, memtable
// from the snapshot's store section and the log tail above the
// flushed watermark, exactly once. Query paging cursors are positions
// in the canonical reading order, not physical pointers, so a page
// walk straddling a flush or compaction never loses or repeats a
// reading. A data dir always means journal plus segment store:
// core.Options.DataDir gives every node both, and a store without a
// journal is refused. The cloud answers every range read — the query
// path and open data alike — from that one series. A directory the
// journal cannot rebuild the store from (its store/ deleted after a
// flush, or written before the journal became the store's log) is
// refused at construction, not served short. See README "Tiered
// storage".
//
// The topology is elastic (core.Options.ElasticOwnership): each
// district's sections form a consistent-hash ownership ring
// (shard.Ring, one share per member) that routes a sensor
// type's edge ingest to its ring owner, and fog layer 1 scales at
// runtime — System.AddFog1Node / System.RemoveFog1Node rebalance a
// district by live-migrating only the types whose owner changed
// (fognode.MigrateOut over transport.KindMigrate). A handoff is a
// planned, lossless failover: sealed state moves verbatim with origin
// identity and delivery sequences intact, so the shared parent's
// replay filter keeps delivery exactly-once across the ownership
// flip, and WAL start/absorb records plus the per-item commits make
// it crash-safe at every boundary. One type's migration, source side:
//
//	OWNED ──MigrateOut──▶ CLAIMED   buffers sealed, outbox claimed
//	                                under its send lock, recMigrateStart
//	CLAIMED ──chunks acked──▶ MOVED acknowledged items leave the outbox
//	                                and are committed; routing flips
//	CLAIMED ──send fails──▶ OWNED   the unsent items never left the
//	                                outbox; the claim is released
//
// and target side: dedup (From, TransferSeq) -> ack; otherwise check
// every item (a sequence, the chunk's type), journal the raw chunk
// (recMigrateIn), absorb verbatim, deliver under the original origins
// at the next flush. A chunk (protocol.MigrateTransfer, version 3) is
// one item list, as the outbox is: each item's kind and its upward
// payload, byte for byte. Elastic chaos runs
// draw joins and leaves beside every other fault and prove the
// conservation ledger, bounded migrate-class traffic and seed
// reproducibility while membership churns (see README "Elastic
// topology").
//
// Standing continuous queries (internal/cq) turn the one-shot read
// path into subscriptions: register a windowed aggregate (tumbling or
// sliding over the same decomposable Summary the push-down reads use)
// or a threshold predicate (f2c.Subscription, System.Subscribe /
// f2cctl subscribe / "subscriptions" in the deployment document), and
// fog layer 1 evaluates it incrementally on the ingest hot path — no
// polling, no raw readings re-read. Fired alerts seal into
// transport.KindAlertPush items that move upward with the same
// guarantees as data because they are the same mechanism: queued on
// the type's outbox behind its batches, at-least-once under a frozen
// identity, instance-level dedup at the cloud
// (protocol.Alert.Key), journaled subscription state so alerts
// survive System.Reboot, and subscription routing through the
// ownership rings so a standing query follows its shard across live
// migration. Every chaos run asserts the exactly-once alert ledger
// under partitions, crashes, joins and leaves, and
// core.TestStandingQueries10x holds the incremental plane to at least
// 10x fewer WAN bytes than polling the same windows (see README
// "Continuous queries & alerting" and examples/congestion).
//
// A multi-process city runs over real sockets through the
// internal/transport/tcpnet production transport: persistent framed
// TCP connections per peer carrying sealed envelopes verbatim (the
// zero-allocation wire path extends across the socket — the frame
// writer appends into a reused scratch buffer, 0 allocs/op at steady
// state), with requests multiplexed by id over per-traffic-class
// connection pools. Each class (bulk ingest, latency-sensitive
// query/control, sibling relay) has its own connections and
// flow-control window per peer, so a saturated ingest stream cannot
// head-of-line-block a real-time read — window exhaustion surfaces as
// transport.ErrBackpressure, which the flush machinery treats as
// "defer and retry" rather than parent failure. f2cd serves it by
// default, citysim -live hosts a whole loopback city behind it, and
// cmd/f2cload drives O(100k)-sensor load planes against it
// (cmd/f2cd TestThreeProcessCity is the multi-process smoke; bench/
// states throughput and per-plane latency).
//
// One deployment document (internal/config) declares a city and what
// every node in it does; core.Options.Member is the one projection
// every host — NewSystem, f2cd, citysim -live — builds a node from,
// and daemon flags say only what is the process's own: identity,
// addresses, paths. See README "Deployment document".
//
// Quick start:
//
//	sys, err := f2c.NewSystem(f2c.Options{
//		Topology: f2c.Barcelona(),
//		Clock:    f2c.NewVirtualClock(start),
//		Dedup:    true,
//		Quality:  true,
//	})
//	...
//	sys.IngestAt("fog1/d01-s01", batch) // acquisition at the edge
//	sys.FlushAll(ctx)                   // periodic upward movement
//	sys.Cloud().Historical("traffic", from, to)
//
// See examples/ for runnable programs and cmd/f2cbench for the
// harnesses that regenerate the paper's Table I and Fig. 7.
package f2c
