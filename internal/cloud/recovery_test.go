package cloud

// Durability tests for the preservation block: a crashed cloud
// (rebuilt from its data directory without Close) must serve the same
// archive, the same historical queries, and still dedupe retried
// deliveries it acknowledged before the crash.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

var c0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// openCloudAt opens a durable cloud on dir: its journal in dir, its
// segment store in dir/store.
func openCloudAt(dir string) (*Node, error) {
	return New(Config{
		ID: "cloud", Clock: sim.NewVirtualClock(c0),
		Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
	})
}

// newDurableCloud opens a durable cloud on dir; a test crashes it with
// Discard before reopening the directory.
func newDurableCloud(t testing.TB, dir string) *Node {
	t.Helper()
	n, err := openCloudAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Discard)
	return n
}

func cloudBatch(origin, typ string, at time.Time, vals ...float64) *model.Batch {
	b := &model.Batch{NodeID: origin, TypeName: typ, Category: model.CategoryUrban, Collected: at}
	for i, v := range vals {
		b.Readings = append(b.Readings, model.Reading{
			SensorID: fmt.Sprintf("%s/%d", typ, i), TypeName: typ, Category: model.CategoryUrban,
			Time: at.Add(time.Duration(i) * time.Millisecond), Value: v, Unit: "u",
		})
	}
	return b
}

func TestCloudRecoveryRestoresArchiveAndSeries(t *testing.T) {
	dir := t.TempDir()
	n := newDurableCloud(t, dir)
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2, 3), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	if err := n.Preserve(cloudBatch("fog2/d02", "noise_level", c0.Add(time.Minute), 4), "fog2/d02"); err != nil {
		t.Fatal(err)
	}

	n.Discard() // crash: no Close
	re := newDurableCloud(t, dir)
	if got := re.Archive().Len(); got != 2 {
		t.Fatalf("recovered archive records = %d, want 2", got)
	}
	if got := re.Historical("traffic", c0, c0.Add(time.Hour)); len(got) != 3 {
		t.Errorf("recovered historical traffic = %d readings, want 3", len(got))
	}
	if r, ok := re.Latest("noise_level/0"); !ok || r.Value != 4 {
		t.Errorf("recovered Latest = %+v ok=%v", r, ok)
	}
	recs := re.Archive().Records()
	if len(recs) != 2 || len(recs[0].Provenance) == 0 || recs[0].Provenance[0] != "fog2/d01" ||
		len(recs[1].Provenance) == 0 || recs[1].Provenance[0] != "fog2/d02" {
		t.Errorf("recovered provenance = %+v", recs)
	}
}

// TestCloudRecoveryDedupesRetryAcrossRestart is the receiver-crash
// regression at the top of the hierarchy: the cloud preserves a
// sequenced delivery, crashes before the sender's retry lands, and
// must recognize the retry after recovery instead of archiving twice.
func TestCloudRecoveryDedupesRetryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	n := newDurableCloud(t, dir)
	b := cloudBatch("fog2/d01", "traffic", c0, 10, 11)
	payload, err := (&protocol.Sealer{}).SealSeq(nil, b, aggregate.CodecNone, 99)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{From: "fog2/d01", To: "cloud", Kind: transport.KindBatch, Payload: payload}
	if _, err := n.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}

	n.Discard() // crash between the duplicate deliveries
	re := newDurableCloud(t, dir)
	if _, err := re.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	if got := re.DuplicateBatches(); got != 1 {
		t.Errorf("duplicates suppressed after restart = %d, want 1", got)
	}
	if got := re.Archive().Len(); got != 1 {
		t.Errorf("archive records = %d, want 1 (retry re-archived after restart?)", got)
	}
	if got := re.Historical("traffic", c0, c0.Add(time.Hour)); len(got) != 2 {
		t.Errorf("historical readings = %d, want 2", len(got))
	}
}

// TestCloudRecoveryHonorsExpire: destroyed records stay destroyed
// across a crash.
func TestCloudRecoveryHonorsExpire(t *testing.T) {
	dir := t.TempDir()
	n := newDurableCloud(t, dir)
	_ = n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1), "fog2/d01")
	_ = n.Preserve(cloudBatch("fog2/d01", "traffic", c0.Add(2*time.Hour), 2), "fog2/d01")
	if destroyed, err := n.Expire(c0.Add(time.Hour)); err != nil || destroyed != 1 {
		t.Fatalf("expired %d records (%v), want 1", destroyed, err)
	}

	n.Discard()
	re := newDurableCloud(t, dir)
	if got := re.Archive().Len(); got != 1 {
		t.Errorf("recovered archive records = %d, want 1 (expired record resurrected?)", got)
	}
}

// TestCloudRecoveryFromCheckpoint folds the archive into a snapshot,
// preserves a tail past it, and recovers both.
func TestCloudRecoveryFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n := newDurableCloud(t, dir)
	_ = n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2), "fog2/d01")
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = n.Preserve(cloudBatch("fog2/d01", "traffic", c0.Add(time.Minute), 3), "fog2/d01")

	n.Discard()
	re := newDurableCloud(t, dir)
	if got := re.Archive().Len(); got != 2 {
		t.Fatalf("recovered archive records = %d, want 2 (snapshot + tail)", got)
	}
	if got := re.Historical("traffic", c0, c0.Add(time.Hour)); len(got) != 3 {
		t.Errorf("recovered historical readings = %d, want 3", len(got))
	}
}

// TestCloudStoreHoldsWhatTheJournalAccepted: the series is kept in the
// segment store, whose only log is the journal. A cloud that preserves,
// checkpoints, preserves again and crashes reads back exactly the
// readings its archive holds.
func TestCloudStoreHoldsWhatTheJournalAccepted(t *testing.T) {
	dir := t.TempDir()
	n := newDurableCloud(t, dir)
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0, 1, 2), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", c0.Add(time.Minute), 3, 4, 5), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	n.Discard()

	re := newDurableCloud(t, dir)
	var archived []float64
	for _, rec := range re.Archive().ByCategory(model.CategoryUrban) {
		for _, r := range rec.Batch.Readings {
			archived = append(archived, r.Value)
		}
	}
	var read []float64
	for _, r := range re.Historical("traffic", c0.Add(-time.Hour), c0.Add(time.Hour)) {
		read = append(read, r.Value)
	}
	if fmt.Sprint(read) != fmt.Sprint(archived) || len(read) != 5 {
		t.Errorf("range reads %v, archive %v: want the same 5 readings", read, archived)
	}
}

// TestCloudLogTailBehindFlushedSegments: a machine crash can leave the
// journal ending behind the synced segments. A preserve accepted after
// that recovery must reach the series' range reads, also after a
// second crash.
func TestCloudLogTailBehindFlushedSegments(t *testing.T) {
	dir := t.TempDir()
	at := func(i int) time.Time { return c0.Add(time.Duration(i) * time.Minute) }
	n := newDurableCloud(t, dir)
	var cut int64
	for i := 1; i <= 10; i++ {
		if err := n.Preserve(cloudBatch("fog2/d01", "traffic", at(i), float64(i)), "fog2/d01"); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			fi, err := os.Stat(journalLog(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			cut = fi.Size()
		}
	}
	if err := n.series.(*segment.Store).Flush(); err != nil {
		t.Fatal(err)
	}
	n.Discard()
	if err := os.Truncate(journalLog(t, dir), cut); err != nil {
		t.Fatal(err)
	}

	n = newDurableCloud(t, dir)
	if err := n.Preserve(cloudBatch("fog2/d01", "traffic", at(11), 11), "fog2/d01"); err != nil {
		t.Fatal(err)
	}
	n.Discard()

	re := newDurableCloud(t, dir)
	var archived, read []float64
	for _, rec := range re.Archive().ByCategory(model.CategoryUrban) {
		for _, r := range rec.Batch.Readings {
			archived = append(archived, r.Value)
		}
	}
	for _, r := range re.Historical("traffic", c0, at(12)) {
		read = append(read, r.Value)
	}
	sort.Float64s(archived)
	sort.Float64s(read)
	if fmt.Sprint(archived) != "[1 2 3 4 5 11]" {
		t.Errorf("archive %v, want the journal's [1 2 3 4 5 11]", archived)
	}
	if fmt.Sprint(read) != "[1 2 3 4 5 6 7 8 9 10 11]" {
		t.Errorf("range reads %v, want the segments' 1..10 and the journal's 11", read)
	}
}

// journalLog is the path of dir's one journal log.
func journalLog(t *testing.T, dir string) string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("journal logs %v: %v", logs, err)
	}
	return logs[0]
}

// TestCloudRecoveryPropertySeeded randomizes preserve/expire/crash/
// checkpoint interleavings and asserts the recovered archive always
// equals the pre-crash archive, reproducible from the printed seed.
func TestCloudRecoveryPropertySeeded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cloudRecoveryProperty(t, seed)
		})
	}
}

func cloudRecoveryProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	n := newDurableCloud(t, dir)
	origins := []string{"fog2/d01", "fog2/d02"}
	types := []string{"traffic", "noise_level"}
	nextVal := 0.0
	at := c0
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("cloud recovery property (rerun with seed %d): %s", seed, fmt.Sprintf(format, args...))
	}
	for op := 0; op < 120; op++ {
		at = at.Add(time.Minute)
		switch k := rng.Intn(10); {
		case k < 6:
			origin := origins[rng.Intn(len(origins))]
			typ := types[rng.Intn(len(types))]
			vals := make([]float64, 1+rng.Intn(4))
			for i := range vals {
				nextVal++
				vals[i] = nextVal
			}
			if err := n.Preserve(cloudBatch(origin, typ, at, vals...), origin); err != nil {
				failf("preserve: %v", err)
			}
		case k < 7:
			if _, err := n.Expire(at.Add(-time.Duration(rng.Intn(90)) * time.Minute)); err != nil {
				failf("expire: %v", err)
			}
		case k < 9:
			wantLen := n.Archive().Len()
			wantReadings := n.Archive().Stats().Readings
			n.Discard()
			n = newDurableCloud(t, dir)
			if got := n.Archive().Len(); got != wantLen {
				failf("op %d: recovered archive len = %d, want %d", op, got, wantLen)
			}
			if got := n.Archive().Stats().Readings; got != wantReadings {
				failf("op %d: recovered archive readings = %d, want %d", op, got, wantReadings)
			}
		default:
			if err := n.Checkpoint(); err != nil {
				failf("checkpoint: %v", err)
			}
		}
	}
}
