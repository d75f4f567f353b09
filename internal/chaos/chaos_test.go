package chaos

import (
	"flag"
	"testing"

	"f2c/internal/core"
	"f2c/internal/model"
	"f2c/internal/segment"
	"f2c/internal/sim"
)

// seedsPerScenario is raised by the long sweep (-chaos.seeds 50).
var seedsPerScenario = flag.Int("chaos.seeds", 3, "seeded runs per scenario")

// scenarios are the acceptance fault schedules. Every run
// asserts the full invariant set end to end: exactly-once
// preservation at the cloud, bounded memory under the configured
// bound, and post-heal convergence. A failure message carries the
// seed that reproduces it.
var scenarios = []Scenario{
	{Name: "partition+heal", Kind: KindPartitionHeal},
	{Name: "parent crash+restart", Kind: KindCrashRestart},
	{Name: "rolling fog churn", Kind: KindRollingChurn},
	// Bounded variant: while the cloud is dark nothing drains, so a
	// small per-type buffer budget must shed (and account every
	// dropped reading) instead of growing without bound.
	{Name: "crash+restart bounded", Kind: KindCrashRestart, MaxPendingReadings: 40},
	// Degrading variant: the same dark-cloud pressure, but trimmed
	// readings fold into window summaries pushed upward instead of
	// being dropped, and every handler sits behind the admission
	// scheduler; the run asserts no reading is lost outside the
	// shed + degraded ledger.
	{Name: "crash+restart degrade", Kind: KindCrashRestart, MaxPendingReadings: 40, DegradeToSummary: true},
	// Durable variant: crashes at every tier destroy volatile state
	// and the victims reboot from their write-ahead logs; with the
	// production memtable cap no segment ever flushes, so recovery
	// rests on the journal and the WAL-replayed memtable and must
	// still preserve every accepted reading exactly once.
	{Name: "crash+recover durable", Kind: KindCrashRecovery, Durable: true, MemtableBytes: segment.DefaultMemtableBytes},
	// Segment-store variant: same crash schedule under the default
	// tiny memtable, so reboots land mid-segment-flush and
	// mid-compaction; recovery must stitch journal, WAL-replayed
	// memtable and on-disk segments back together with no loss and
	// no duplicates.
	{Name: "crash+recover segment store", Kind: KindCrashRecovery, Durable: true},
	// Alert variant: standing continuous queries fire throughout a
	// mixed partition + crash schedule (Durable implied), and the run
	// additionally asserts the exactly-once alert ledger — the fired
	// instance set equals the cloud's archived instance set.
	{Name: "alert churn", Kind: KindAlertChurn},
}

func TestChaosScenarios(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(*seedsPerScenario); seed++ {
				sc := sc
				sc.Seed = seed
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Accepted == 0 || res.Preserved == 0 {
					t.Fatalf("seed %d: empty run (accepted %d, preserved %d)", seed, res.Accepted, res.Preserved)
				}
				t.Logf("seed %d: accepted %d, preserved %d, shed %d, dups suppressed %d, relayed %d, deferred %d, recovery rounds %d",
					seed, res.Accepted, res.Preserved, res.Shed, res.Duplicates, res.Relayed, res.Deferred, res.RecoveryRounds)
			}
		})
	}
}

// TestChaosExercisesResilienceMachinery guards against a silently
// degenerate harness: across the standard seeds, the schedules must
// actually provoke duplicate-suppression and sibling relays — if they
// stop doing so, the invariants above are passing vacuously.
func TestChaosExercisesResilienceMachinery(t *testing.T) {
	var dups, relayed, shed int64
	for _, sc := range scenarios {
		sc.Seed = 1
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		dups += res.Duplicates
		relayed += res.Relayed
		shed += res.Shed
	}
	if dups == 0 {
		t.Error("no duplicate deliveries were provoked: reply-loss bursts are not reaching the wire")
	}
	if relayed == 0 {
		t.Error("no sibling relays happened: failover never engaged")
	}
	if shed == 0 {
		t.Error("the bounded scenario never shed: the buffer bound is not under pressure")
	}
}

// TestChaosCrashRecoveryZeroLoss is the durability acceptance
// contract, run both ways on the same schedules: with durability ON
// (journal + segment store), crash-instant reboots must lose nothing
// (preserved == accepted exactly once, DroppedDuringOutage == 0 —
// asserted inside Run) while actually rebooting at every tier; the
// schedules must also demonstrably destroy state when durability is
// OFF, or the zero-loss assertion would be passing against harmless
// crashes.
func TestChaosCrashRecoveryZeroLoss(t *testing.T) {
	lossless := 0
	for seed := int64(1); seed <= int64(*seedsPerScenario); seed++ {
		durable := Scenario{Name: "durable recovery", Kind: KindCrashRecovery, Durable: true, Seed: seed}
		res, err := Run(durable)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reboots == 0 {
			t.Fatalf("seed %d: durable run performed no journal reboots: crashes never landed", seed)
		}
		if res.Preserved != res.Accepted {
			t.Fatalf("seed %d: durable run preserved %d of %d accepted readings", seed, res.Preserved, res.Accepted)
		}
		if res.Dropped != 0 || res.Shed != 0 {
			t.Fatalf("seed %d: durable run dropped %d / shed %d readings", seed, res.Dropped, res.Shed)
		}
		t.Logf("seed %d: accepted %d preserved %d, %d reboots, %d dups suppressed",
			seed, res.Accepted, res.Preserved, res.Reboots, res.Duplicates)

		// Control: durability off on the same schedule keeps the old
		// crash semantics — in-memory state survives (no reboots) and
		// the run still converges under the bounded-loss contract.
		volatile := Scenario{Name: "volatile control", Kind: KindCrashRecovery, Seed: seed}
		vres, err := Run(volatile)
		if err != nil {
			t.Fatal(err)
		}
		if vres.Reboots != 0 {
			t.Fatalf("seed %d: volatile run rebooted %d times", seed, vres.Reboots)
		}
		if vres.Preserved == vres.Accepted {
			lossless++
		}
	}
	_ = lossless // volatile crash-restart often loses nothing (state survives in memory); durable must NEVER lose.
}

// TestChaosRebootLosesStateWithoutJournal pins down what a reboot
// means: the same restart machinery, pointed at a node with no
// journal, loses its buffered readings — proving the zero-loss result
// above comes from WAL recovery, not from crashes being gentle. With
// a journal attached, the identical sequence loses nothing.
func TestChaosRebootLosesStateWithoutJournal(t *testing.T) {
	topo, err := smallCity()
	if err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		opts := core.Options{Topology: topo, Clock: sim.NewVirtualClock(epoch), City: "Chaosville"}
		if durable {
			opts.DataDir = t.TempDir()
		}
		sys, err := core.NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		id := sys.Fog1IDs()[0]
		b := &model.Batch{
			NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: epoch,
			Readings: []model.Reading{{
				SensorID: "traffic/1", TypeName: "traffic", Category: model.CategoryUrban,
				Time: epoch, Value: 1,
			}},
		}
		if err := sys.IngestAt(id, b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Reboot(id); err != nil {
			t.Fatal(err)
		}
		n, _ := sys.Fog1(id)
		got := n.PendingReadings()
		if durable && got != 1 {
			t.Errorf("durable reboot lost the buffered reading (pending = %d, want 1)", got)
		}
		if !durable && got != 0 {
			t.Errorf("journal-less reboot kept %d readings, want 0 (crash must destroy volatile state)", got)
		}
	}
}

// TestChaosDurableSeedReproducible extends the debugging contract to
// durable runs: recovery from the journal and the tiered segment store
// must not introduce nondeterminism.
func TestChaosDurableSeedReproducible(t *testing.T) {
	sc := Scenario{Name: "durable repro", Kind: KindCrashRecovery, Durable: true, Seed: 11}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same durable seed diverged:\n first %+v\nsecond %+v", a, b)
	}
}

// TestChaosDegradeConservation is the graceful-degradation acceptance
// contract: with reply loss disabled (acknowledgements reliable, so
// shed/preserved overlap cannot happen) the ledger is exact — every
// accepted reading is preserved raw, archived inside a degraded
// summary, or counted shed, with no double-count (asserted inside
// Run) — and the pressure must actually provoke degradation, or the
// ledger is passing vacuously. The run must also stay
// seed-reproducible: summary folding and admission scheduling
// introduce no nondeterminism.
func TestChaosDegradeConservation(t *testing.T) {
	for seed := int64(1); seed <= int64(*seedsPerScenario); seed++ {
		sc := Scenario{
			Name: "degrade conservation", Kind: KindCrashRestart,
			MaxPendingReadings: 40, DegradeToSummary: true,
			ReplyLoss: -1, Seed: seed,
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded == 0 {
			t.Fatalf("seed %d: dark-cloud pressure degraded nothing: the bound is not forcing summaries", seed)
		}
		if got := int64(res.Preserved) + res.Degraded + res.Shed; got != int64(res.Accepted) {
			t.Fatalf("seed %d: ledger %d != accepted %d (%+v)", seed, got, res.Accepted, res)
		}
		again, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res != again {
			t.Errorf("seed %d: degrade run diverged:\n first %+v\nsecond %+v", seed, res, again)
		}
		t.Logf("seed %d: accepted %d = preserved %d + degraded %d + shed %d",
			seed, res.Accepted, res.Preserved, res.Degraded, res.Shed)
	}
}

// TestChaosAlertExactlyOnce is the continuous-query acceptance
// contract: across seeded partition/heal windows and crash reboots at
// every tier, each alert instance a standing subscription fires is
// archived at the cloud exactly once — none lost to a severed uplink,
// a dead process or retry-queue folding, none duplicated by the
// at-least-once redelivery — and the schedule demonstrably reboots
// nodes, or the journaled-seal machinery would be passing untested.
// The full two-way set assertion runs inside Run; the test pins the
// non-vacuousness conditions and the seed-reproducibility of the
// alert ledger itself.
func TestChaosAlertExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= int64(*seedsPerScenario); seed++ {
		sc := Scenario{Name: "alert exactly-once", Kind: KindAlertChurn, Seed: seed}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.AlertsFired == 0 {
			t.Fatalf("seed %d: the standing subscriptions fired nothing", seed)
		}
		if res.AlertsDelivered != res.AlertsFired {
			t.Fatalf("seed %d: fired %d alert instances, cloud archived %d", seed, res.AlertsFired, res.AlertsDelivered)
		}
		if res.Reboots == 0 {
			t.Fatalf("seed %d: alert run performed no journal reboots: crashes never landed", seed)
		}
		t.Logf("seed %d: fired %d = delivered %d, %d duplicate instances absorbed, %d reboots, %d dups suppressed",
			seed, res.AlertsFired, res.AlertsDelivered, res.AlertDuplicates, res.Reboots, res.Duplicates)
	}

	// Reproducibility: the alert ledger (fired/delivered/duplicate
	// tallies included, Result is compared whole) must derive from the
	// seed alone.
	sc := Scenario{Name: "alert repro", Kind: KindAlertChurn, Seed: 5}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same alert seed diverged:\n first %+v\nsecond %+v", a, b)
	}
}

// TestChaosRebalanceAlertConservation closes the loop between the
// elastic and alert planes: standing subscriptions registered through
// the ownership rings must keep the exactly-once alert ledger while
// fog layer 1 joins and leaves under rebalance churn — the shard
// handoffs carry subscription definitions and open window state, so a
// window in flight at a migration is fired by exactly one owner (or,
// when a lost transfer ack legitimately leaves both sides owning it,
// fired under two identities that are each delivered exactly once).
func TestChaosRebalanceAlertConservation(t *testing.T) {
	for seed := int64(1); seed <= int64(*seedsPerScenario); seed++ {
		sc := Scenario{Name: "rebalance alerts", Kind: KindRebalanceChurn, Alerts: true, Seed: seed}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.AlertsFired == 0 {
			t.Fatalf("seed %d: the standing subscriptions fired nothing under churn", seed)
		}
		if res.AlertsDelivered != res.AlertsFired {
			t.Fatalf("seed %d: fired %d alert instances, cloud archived %d", seed, res.AlertsFired, res.AlertsDelivered)
		}
		if res.ScaleOuts == 0 || res.ScaleIns == 0 {
			t.Fatalf("seed %d: churn ran no scale events (out %d, in %d): migrations never happened", seed, res.ScaleOuts, res.ScaleIns)
		}
		t.Logf("seed %d: fired %d = delivered %d across %d joins / %d leaves, %d readings migrated",
			seed, res.AlertsFired, res.AlertsDelivered, res.ScaleOuts, res.ScaleIns, res.MigratedReadings)
	}
}

// TestChaosSeedReproducible is the debugging contract: the same seed
// must reproduce the same run — workload, fault schedule and
// outcome — or printing the seed on failure would be useless.
func TestChaosSeedReproducible(t *testing.T) {
	sc := Scenario{Name: "repro", Kind: KindPartitionHeal, Seed: 7}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n first %+v\nsecond %+v", a, b)
	}
}

// TestChaosDurableDegradeConservation closes the degrade tier's crash
// hole end to end: the crash schedule that reboots nodes at every tier
// from their journals, run with the buffer bound folding readings into
// summaries. A reboot may land between a fold and the push that
// carries it, with a sealed push parked, or — at fog layer 2 — with a
// child's absorbed summary waiting in the degrade buffer; with
// acknowledgements reliable the ledger must still be exact.
func TestChaosDurableDegradeConservation(t *testing.T) {
	for seed := int64(1); seed <= int64(*seedsPerScenario); seed++ {
		sc := Scenario{
			Name: "durable degrade conservation", Kind: KindCrashRecovery, Durable: true,
			MaxPendingReadings: 10, DegradeToSummary: true,
			ReplyLoss: -1, Seed: seed,
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded == 0 || res.Reboots == 0 {
			t.Fatalf("seed %d: vacuous run: %d readings degraded, %d reboots", seed, res.Degraded, res.Reboots)
		}
		if got := int64(res.Preserved) + res.Degraded + res.Shed; got != int64(res.Accepted) {
			t.Fatalf("seed %d: ledger %d != accepted %d (%+v)", seed, got, res.Accepted, res)
		}
		again, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res != again {
			t.Errorf("seed %d: durable degrade run diverged:\n first %+v\nsecond %+v", seed, res, again)
		}
		t.Logf("seed %d: accepted %d = preserved %d + degraded %d + shed %d across %d reboots",
			seed, res.Accepted, res.Preserved, res.Degraded, res.Shed, res.Reboots)
	}
}
