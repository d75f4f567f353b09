package chaos

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"f2c/internal/core"
	"f2c/internal/model"
	"f2c/internal/sim"
)

// defaultSeeds is the smallest seed set, 1..defaultSeeds, whose drawn
// profiles cover every value of every dimension. TestChaos asserts
// both halves of that.
const defaultSeeds = 5

// seeds is how many seeds TestChaos runs; the long sweep raises it
// (-chaos.seeds 300).
var seeds = flag.Int("chaos.seeds", defaultSeeds, "how many seeds TestChaos runs")

// runs memoizes Run per seed, so the tests of one process share runs.
var runs = map[int64]struct {
	res Result
	err error
}{}

func runSeed(seed int64) (Result, error) {
	o, ok := runs[seed]
	if !ok {
		o.res, o.err = Run(seed)
		runs[seed] = o
	}
	return o.res, o.err
}

func profileOf(seed int64) Profile { return drawProfile(rand.New(rand.NewSource(seed))) }

// covers reports whether seeds 1..n draw every value of every profile
// dimension.
func covers(n int) bool {
	got := map[string]bool{}
	for seed := int64(1); seed <= int64(n); seed++ {
		p := profileOf(seed)
		got["storage="+p.Storage] = true
		got["buffer="+p.Buffer] = true
		got[fmt.Sprint("lossy=", p.LossyAcks)] = true
		got[fmt.Sprint("elastic=", p.Elastic)] = true
		got[fmt.Sprint("adaptive=", p.Adaptive)] = true
	}
	return len(got) == len(storages)+len(buffers)+3*2
}

// eachSeed runs fn on the result of every seed TestChaos runs.
func eachSeed(t *testing.T, fn func(seed int64, res Result)) {
	t.Helper()
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		res, err := runSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		fn(seed, res)
	}
}

// TestChaosScenarios guards the default seed set: it must be the
// smallest prefix of seeds whose drawn profiles cover every value of
// every dimension, so every scenario runs on every push.
func TestChaosScenarios(t *testing.T) {
	if !covers(defaultSeeds) || covers(defaultSeeds-1) {
		t.Fatalf("seeds 1..%d are not the smallest set covering every profile value", defaultSeeds)
	}
}

// TestChaos runs every seed of the set and checks, beyond what Run
// checks on every profile, that the run was not empty and that a RAM
// run never rebooted from disk.
func TestChaos(t *testing.T) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := runSeed(seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted == 0 || res.Preserved == 0 {
				t.Fatalf("empty run: %+v", res)
			}
			if res.Profile.Storage == "ram" && res.Reboots != [3]int{} {
				t.Fatalf("a RAM run rebooted from disk: %+v", res)
			}
			t.Logf("%+v", res)
		})
	}
}

// TestChaosCrashRecoveryZeroLoss is the durability acceptance
// contract: on a data dir with an unbounded buffer, crash-instant
// reboots must lose nothing — preserved == accepted exactly once, with
// nothing shed or dropped — while actually rebooting.
func TestChaosCrashRecoveryZeroLoss(t *testing.T) {
	durable := 0
	eachSeed(t, func(seed int64, res Result) {
		if res.Profile.Storage == "ram" || res.Profile.Buffer != "unbounded" {
			return
		}
		durable++
		if res.Reboots == [3]int{} {
			t.Errorf("seed %d: durable run performed no reboots: crashes never landed", seed)
		}
		if res.Preserved != res.Accepted || res.Dropped != 0 || res.Shed != 0 {
			t.Errorf("seed %d: durable run preserved %d of %d accepted, dropped %d, shed %d",
				seed, res.Preserved, res.Accepted, res.Dropped, res.Shed)
		}
	})
	if durable == 0 {
		t.Fatal("no seed ran on a data dir with an unbounded buffer")
	}
}

// exactLedger reports whether every accepted reading is preserved raw,
// archived inside a degraded summary, or counted shed.
func exactLedger(res Result) bool {
	return int64(res.Preserved)+res.Degraded+res.Shed == int64(res.Accepted)
}

// TestChaosDegradeConservation is the graceful-degradation contract:
// with reliable acks a bounded run's ledger is exact, and a degrade
// run's pressure must actually fold readings into summaries, or the
// ledger passes vacuously.
func TestChaosDegradeConservation(t *testing.T) {
	degrade := 0
	eachSeed(t, func(seed int64, res Result) {
		p := res.Profile
		if p.Buffer == "unbounded" || p.LossyAcks {
			return
		}
		if !exactLedger(res) {
			t.Errorf("seed %d: ledger %d + %d + %d != accepted %d", seed, res.Preserved, res.Degraded, res.Shed, res.Accepted)
		}
		if p.Buffer == "degrade" {
			degrade++
			if res.Degraded == 0 {
				t.Errorf("seed %d: pressure degraded nothing: the bound is not forcing summaries", seed)
			}
		}
	})
	if degrade == 0 {
		t.Fatal("no seed degraded with reliable acks")
	}
}

// TestChaosDurableDegradeConservation closes the degrade tier's crash
// hole: some bounded run with reliable acks both folds readings into
// summaries and reboots from disk, and its ledger stays exact.
func TestChaosDurableDegradeConservation(t *testing.T) {
	found := false
	eachSeed(t, func(seed int64, res Result) {
		p := res.Profile
		if p.Buffer == "unbounded" || p.LossyAcks || res.Degraded == 0 || res.Reboots == [3]int{} {
			return
		}
		found = true
		if !exactLedger(res) {
			t.Errorf("seed %d: ledger %d + %d + %d != accepted %d", seed, res.Preserved, res.Degraded, res.Shed, res.Accepted)
		}
	})
	if !found {
		t.Error("no bounded run with reliable acks both degraded readings and rebooted from disk")
	}
}

// TestChaosAlertExactlyOnce is the continuous-query contract: every
// alert instance fired is archived at the cloud exactly once, and the
// set includes a data-dir run that rebooted, or the journaled seals
// pass untested.
func TestChaosAlertExactlyOnce(t *testing.T) {
	rebooted := false
	eachSeed(t, func(seed int64, res Result) {
		if res.AlertsFired == 0 || res.AlertsDelivered != res.AlertsFired {
			t.Errorf("seed %d: fired %d alert instances, cloud archived %d", seed, res.AlertsFired, res.AlertsDelivered)
		}
		rebooted = rebooted || (res.Profile.Storage != "ram" && res.Reboots != [3]int{})
	})
	if !rebooted {
		t.Error("no run with alerts rebooted from a data dir")
	}
}

// TestChaosRebalanceAlertConservation closes the loop between the
// elastic and alert planes: alerts fired and delivered on an elastic
// run that joined or left, so shard handoffs carried subscriptions and
// open windows.
func TestChaosRebalanceAlertConservation(t *testing.T) {
	scaled := false
	eachSeed(t, func(seed int64, res Result) {
		if !res.Profile.Elastic || res.ScaleOuts+res.ScaleIns == 0 {
			return
		}
		if res.AlertsFired > 0 && res.AlertsFired == res.AlertsDelivered {
			scaled = true
		}
	})
	if !scaled {
		t.Error("no elastic run that scaled fired and delivered alerts")
	}
}

// TestChaosElasticScenarios checks that the elastic seeds ran
// non-empty and that joins and leaves both happened across them.
func TestChaosElasticScenarios(t *testing.T) {
	elastic, joins, leaves := 0, 0, 0
	eachSeed(t, func(seed int64, res Result) {
		if !res.Profile.Elastic {
			return
		}
		elastic++
		joins += res.ScaleOuts
		leaves += res.ScaleIns
		if res.Accepted == 0 || res.Preserved == 0 {
			t.Errorf("seed %d: empty run (accepted %d, preserved %d)", seed, res.Accepted, res.Preserved)
		}
	})
	if elastic == 0 || joins == 0 || leaves == 0 {
		t.Errorf("%d elastic seeds, %d joins, %d leaves: each must be above zero", elastic, joins, leaves)
	}
}

// TestChaosElasticExactConservation: an unbounded elastic run
// preserves every accepted reading exactly once across migrations.
func TestChaosElasticExactConservation(t *testing.T) {
	exact := 0
	eachSeed(t, func(seed int64, res Result) {
		if !res.Profile.Elastic || res.Profile.Buffer != "unbounded" {
			return
		}
		exact++
		if res.Preserved != res.Accepted || res.Shed != 0 || res.Degraded != 0 {
			t.Errorf("seed %d: ledger not exact: %+v", seed, res)
		}
	})
	if exact == 0 {
		t.Fatal("no seed ran elastic with an unbounded buffer")
	}
}

// TestChaosElasticRebalanceTrafficObserved guards the migration
// accounting against vacuity: joins and leaves must move state, or
// Run's rebalance closures assert nothing.
func TestChaosElasticRebalanceTrafficObserved(t *testing.T) {
	var migrated, bytes int64
	eachSeed(t, func(_ int64, res Result) {
		migrated += res.MigratedReadings
		bytes += res.MigrateBytes
	})
	if migrated == 0 || bytes == 0 {
		t.Errorf("migrated readings %d and bytes %d: each must be above zero", migrated, bytes)
	}
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

// TestChaosExercisesResilienceMachinery guards the seed set against a
// silently degenerate harness: across it, the drawn events must
// provoke every mechanism the checks in Run stand on, or those checks
// pass vacuously. The named tests above hold the degrade, alert and
// migration halves of this guard.
func TestChaosExercisesResilienceMachinery(t *testing.T) {
	var dups, relayed, shed int64
	var reboots [3]int
	eachSeed(t, func(_ int64, res Result) {
		dups += res.Duplicates
		relayed += res.Relayed
		shed += res.Shed
		for i, n := range res.Reboots {
			reboots[i] += n
		}
	})
	if dups == 0 || relayed == 0 || shed == 0 {
		t.Errorf("duplicates suppressed %d, sibling relays %d, shed %d: each must be above zero", dups, relayed, shed)
	}
	if reboots[0] == 0 || reboots[1] == 0 || reboots[2] == 0 {
		t.Errorf("reboots from disk per tier (fog1, fog2, cloud) = %v: every tier must reboot", reboots)
	}
}

// reproduces checks the debugging contract on the first default seed
// whose profile matches: the seed must reproduce its run, or printing
// it on failure would be useless.
func reproduces(t *testing.T, what string, match func(Profile) bool) {
	t.Helper()
	for seed := int64(1); seed <= defaultSeeds; seed++ {
		if !match(profileOf(seed)) {
			continue
		}
		a, err := runSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("seed %d diverged:\n first %+v\nsecond %+v", seed, a, b)
		}
		return
	}
	t.Fatalf("the default set lacks a %s seed", what)
}

// TestChaosSeedReproducible: summary folding and admission scheduling
// introduce no nondeterminism.
func TestChaosSeedReproducible(t *testing.T) {
	reproduces(t, "degrade", func(p Profile) bool { return p.Buffer == "degrade" })
}

// TestChaosDurableSeedReproducible: recovery from the journal and the
// segment store introduces no nondeterminism.
func TestChaosDurableSeedReproducible(t *testing.T) {
	reproduces(t, "static data-dir", func(p Profile) bool { return p.Storage != "ram" && !p.Elastic })
}

// TestChaosElasticSeedReproducible: minted node IDs, victim draws and
// migration chunking derive from the seed.
func TestChaosElasticSeedReproducible(t *testing.T) {
	reproduces(t, "elastic", func(p Profile) bool { return p.Elastic })
}
