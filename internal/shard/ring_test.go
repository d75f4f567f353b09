package shard

import (
	"fmt"
	"sync"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sensor.type-%04d", i)
	}
	return keys
}

func ownersOf(r *Ring, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			continue
		}
		out[k] = o
	}
	return out
}

func TestRingOwnershipTable(t *testing.T) {
	cases := []struct {
		name    string
		setup   func(r *Ring)
		key     string
		wantOK  bool
		members int
	}{
		{name: "empty ring has no owner", setup: func(r *Ring) {}, key: "traffic", wantOK: false, members: 0},
		{
			name:    "single member owns everything",
			setup:   func(r *Ring) { r.Add("fog1/d01-s01") },
			key:     "traffic",
			wantOK:  true,
			members: 1,
		},
		{
			name: "re-add replaces weight instead of stacking",
			setup: func(r *Ring) {
				r.Add("a")
				r.Add("a")
				r.Add("a")
			},
			key:     "traffic",
			wantOK:  true,
			members: 1,
		},
		{
			name: "remove absent member is a no-op",
			setup: func(r *Ring) {
				r.Add("a")
				r.Remove("b")
			},
			key:     "traffic",
			wantOK:  true,
			members: 1,
		},
		{
			name: "empty id rejected",
			setup: func(r *Ring) {
				r.Add("")
			},
			key:     "traffic",
			wantOK:  false,
			members: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing()
			tc.setup(r)
			if got := r.Len(); got != tc.members {
				t.Fatalf("Len = %d, want %d", got, tc.members)
			}
			_, ok := r.Owner(tc.key)
			if ok != tc.wantOK {
				t.Fatalf("Owner ok = %v, want %v", ok, tc.wantOK)
			}
		})
	}

	t.Run("re-add with same weight keeps point count", func(t *testing.T) {
		r := NewRing()
		r.Add("a")
		n := len(r.points)
		r.Add("a")
		if n != virtualNodes || len(r.points) != n {
			t.Fatalf("points went from %d to %d on idempotent re-add, want %d", n, len(r.points), virtualNodes)
		}
	})
}

func TestRingDeterministicAndStable(t *testing.T) {
	build := func() *Ring {
		r := NewRing()
		r.Add("fog1/d01-s01")
		r.Add("fog1/d01-s02")
		r.Add("fog1/d01-s03")
		return r
	}
	keys := ringKeys(500)
	a := ownersOf(build(), keys)
	b := ownersOf(build(), keys)
	for _, k := range keys {
		if a[k] != b[k] {
			t.Fatalf("owner of %q differs between identical rings: %q vs %q", k, a[k], b[k])
		}
	}
}

// TestRingRebalanceMinimalMovement asserts the consistent-hashing
// contract: adding one member only moves keys TO the new member, and
// removing it only moves its own keys — nothing shuffles between
// surviving members.
func TestRingRebalanceMinimalMovement(t *testing.T) {
	r := NewRing()
	for i := 1; i <= 5; i++ {
		r.Add(fmt.Sprintf("fog1/d01-s%02d", i))
	}
	keys := ringKeys(2000)
	before := ownersOf(r, keys)

	const joiner = "fog1/d01-s06"
	r.Add(joiner)
	after := ownersOf(r, keys)
	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			if after[k] != joiner {
				t.Fatalf("key %q moved %q -> %q, not to the joiner", k, before[k], after[k])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("joiner received no keys")
	}
	// Expected share is 1/6; allow generous slack but catch a full
	// reshuffle.
	if moved > len(keys)/3 {
		t.Fatalf("join moved %d/%d keys; expected ~1/6", moved, len(keys))
	}

	r.Remove(joiner)
	restored := ownersOf(r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("remove did not restore ownership of %q: %q vs %q", k, restored[k], before[k])
		}
	}
}

// TestRingSkewBound is the ring's acceptance bound: with 128 virtual
// nodes the max/min owned-type ratio stays ≤ 1.3.
func TestRingSkewBound(t *testing.T) {
	for _, members := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			r := NewRing()
			for i := 0; i < members; i++ {
				r.Add(fmt.Sprintf("fog1/d%02d-s%02d", i/8+1, i%8+1))
			}
			counts := make(map[string]int, members)
			keys := ringKeys(20000)
			for _, k := range keys {
				o, _ := r.Owner(k)
				counts[o]++
			}
			if len(counts) != members {
				t.Fatalf("only %d of %d members own keys", len(counts), members)
			}
			min, max := len(keys), 0
			for _, c := range counts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			skew := float64(max) / float64(min)
			if skew > 1.3 {
				t.Fatalf("ownership skew %.3f exceeds 1.3 (min=%d max=%d)", skew, min, max)
			}
		})
	}
}

func TestOwnershipAssignAndDiff(t *testing.T) {
	r := NewRing()
	for _, id := range []string{"fog1/d01-s01", "fog1/d01-s02", "fog1/d01-s03"} {
		r.Add(id)
	}
	types := ringKeys(300)
	before := r.Assign(types)
	if len(before) != len(types) {
		t.Fatalf("assigned %d of %d types", len(before), len(types))
	}
	for _, typ := range types {
		owner, ok := r.Owner(typ)
		if !ok || owner != before[typ] {
			t.Fatalf("Owner(%q) = %q/%v, Assign said %q", typ, owner, ok, before[typ])
		}
	}

	r.Add("fog1/d01-s04")
	after := r.Assign(types)
	moves := Diff(before, after)
	if len(moves) == 0 {
		t.Fatal("join produced no moves")
	}
	for _, m := range moves {
		if m.To != "fog1/d01-s04" {
			t.Fatalf("join moved %q to %q, not to the joiner", m.TypeName, m.To)
		}
		if m.From == "" {
			t.Fatalf("move for %q lost its source", m.TypeName)
		}
	}
	for i := 1; i < len(moves); i++ {
		if moves[i-1].TypeName >= moves[i].TypeName {
			t.Fatalf("moves not sorted: %q before %q", moves[i-1].TypeName, moves[i].TypeName)
		}
	}

	r.Remove("fog1/d01-s04")
	restored := r.Assign(types)
	if back := Diff(before, restored); len(back) != 0 {
		t.Fatalf("leave did not restore the original assignment: %d stray moves", len(back))
	}
}

// TestOwnershipDedupesMultiDistrictMembers is the regression test for
// the multi-district bug: a node listed in several district rosters
// used to get its virtual nodes inserted once per listing, silently
// multiplying its share. Adding a member twice must not stack its
// points.
func TestOwnershipDedupesMultiDistrictMembers(t *testing.T) {
	// "shared" backs two districts and appears in both rosters.
	// Without dedupe it would own ~2x a single-district sibling's
	// share.
	r := NewRing()
	for _, id := range []string{
		// District 1.
		"fog1/d01-s01", "fog1/shared",
		// District 2.
		"fog1/shared", "fog1/d02-s01", "fog1/d02-s02",
	} {
		r.Add(id)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("member count = %d, want 4 (duplicate not deduped)", got)
	}
	counts := make(map[string]int)
	for _, typ := range ringKeys(20000) {
		owner, _ := r.Owner(typ)
		counts[owner]++
	}
	shared := float64(counts["fog1/shared"])
	others := float64(counts["fog1/d01-s01"]+counts["fog1/d02-s01"]+counts["fog1/d02-s02"]) / 3
	ratio := shared / others
	if ratio > 1.3 {
		t.Fatalf("multi-district member owns %.2fx a sibling's share; dedupe failed (counts %v)", ratio, counts)
	}
}

func TestOwnershipEmpty(t *testing.T) {
	r := NewRing()
	if _, ok := r.Owner("anything"); ok {
		t.Fatal("empty ring returned an owner")
	}
	if got := r.Assign([]string{"a", "b"}); len(got) != 0 {
		t.Fatalf("empty ring assigned %d types", len(got))
	}
}

// TestRingConcurrentUse: ingest routing reads a district's ring while
// a scale event adds and removes members. Run it with -race.
func TestRingConcurrentUse(t *testing.T) {
	r := NewRing()
	r.Add("fog1/d01-s01")
	keys := ringKeys(200)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, k := range keys[:20] {
					if _, ok := r.Owner(k); !ok {
						t.Error("a ring with a permanent member returned no owner")
						return
					}
				}
				_ = r.Assign(keys)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		r.Add("fog1/d01-s02")
		r.Remove("fog1/d01-s02")
	}
	wg.Wait()
	if r.Len() != 1 {
		t.Fatalf("Len = %d after balanced joins and leaves, want 1", r.Len())
	}
}

func TestFNV32aMatchesReference(t *testing.T) {
	// Spot-check the 32-bit hash against known FNV-1a values so the
	// shared shard-selection hash never drifts.
	cases := map[string]uint32{
		"":    2166136261,
		"a":   0xe40c292c,
		"foo": 0xa9f37ed7,
	}
	for in, want := range cases {
		if got := FNV32a(in); got != want {
			t.Fatalf("FNV32a(%q) = %#x, want %#x", in, got, want)
		}
	}
}
