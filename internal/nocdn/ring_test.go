package nocdn

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func ringWith(n int, vnodes int) *hashRing {
	r := newRing(vnodes)
	for i := 0; i < n; i++ {
		r.add(fmt.Sprintf("peer-%04d", i))
	}
	return r
}

// TestRingBoundedBalance is the satellite balance property: 10k keys over
// 1k peers through bounded-load picking land with max/mean <= 1.25.
func TestRingBoundedBalance(t *testing.T) {
	const peers, keys = 1000, 10000
	r := ringWith(peers, 0)
	loads := make(map[string]int)
	mean := float64(keys) / float64(peers)
	capacity := int(DefaultRingLoadFactor * mean)
	for i := 0; i < keys; i++ {
		if _, ok := r.pickBounded(fmt.Sprintf("key-%d", i), loads, capacity, nil, nil); !ok {
			t.Fatalf("key %d unassigned", i)
		}
	}
	total, max := 0, 0
	for _, n := range loads {
		total += n
		if n > max {
			max = n
		}
	}
	if total != keys {
		t.Fatalf("assigned %d keys, want %d", total, keys)
	}
	if ratio := float64(max) / mean; ratio > DefaultRingLoadFactor {
		t.Fatalf("max/mean = %.3f, want <= %v (max load %d)", ratio, DefaultRingLoadFactor, max)
	}
}

// TestRingMinimalDisruption: adding or removing one peer remaps at most
// ~2/N of keys (expected ~1/N — the arcs the member's vnodes own).
func TestRingMinimalDisruption(t *testing.T) {
	const peers, keys = 200, 10000
	assignments := func(r *hashRing) []string {
		out := make([]string, keys)
		for i := range out {
			out[i], _ = r.lookup(fmt.Sprintf("key-%d", i), nil)
		}
		return out
	}
	r := ringWith(peers, 0)
	before := assignments(r)

	r.add("peer-new")
	afterAdd := assignments(r)
	moved := 0
	for i := range before {
		if before[i] != afterAdd[i] {
			moved++
		}
	}
	if limit := keys * 2 / (peers + 1); moved > limit {
		t.Fatalf("add remapped %d/%d keys, want <= %d (~2/N)", moved, keys, limit)
	}
	for i := range afterAdd {
		if afterAdd[i] != before[i] && afterAdd[i] != "peer-new" {
			t.Fatalf("key %d moved between two old peers (%s -> %s) on add", i, before[i], afterAdd[i])
		}
	}

	r.remove("peer-new")
	afterRemove := assignments(r)
	for i := range afterRemove {
		if afterRemove[i] != before[i] {
			t.Fatalf("remove did not restore key %d (%s vs %s)", i, afterRemove[i], before[i])
		}
	}
}

// TestRingDeterminism: assignment is a pure function of the member set —
// same fleet, any registration order, fresh process: same map.
func TestRingDeterminism(t *testing.T) {
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("peer-%04d", i)
	}
	forward := newRing(0)
	for _, id := range ids {
		forward.add(id)
	}
	backward := newRing(0)
	for i := len(ids) - 1; i >= 0; i-- {
		backward.add(ids[i])
	}
	// Churned: extra members added then removed must leave no trace.
	churned := newRing(0)
	for i, id := range ids {
		churned.add(id)
		if i%3 == 0 {
			churned.add("ghost-" + id)
		}
	}
	for i, id := range ids {
		if i%3 == 0 {
			churned.remove("ghost-" + id)
		}
	}
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%d", i)
		a, _ := forward.lookup(key, nil)
		b, _ := backward.lookup(key, nil)
		c, _ := churned.lookup(key, nil)
		if a != b || a != c {
			t.Fatalf("key %q: forward=%s backward=%s churned=%s", key, a, b, c)
		}
	}
}

// TestRingTable drives the edge cases.
func TestRingTable(t *testing.T) {
	cases := []struct {
		name    string
		members []string
		removed []string
		key     string
		n       int
		want    int // len(successors)
	}{
		{name: "empty", key: "k", n: 3, want: 0},
		{name: "single", members: []string{"a"}, key: "k", n: 3, want: 1},
		{name: "three distinct", members: []string{"a", "b", "c"}, key: "k", n: 3, want: 3},
		{name: "more than members", members: []string{"a", "b"}, key: "k", n: 5, want: 2},
		{name: "all removed", members: []string{"a", "b"}, removed: []string{"a", "b"}, key: "k", n: 2, want: 0},
		{name: "partial removal", members: []string{"a", "b", "c"}, removed: []string{"b"}, key: "k", n: 3, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing(8)
			for _, m := range tc.members {
				r.add(m)
			}
			for _, m := range tc.removed {
				r.remove(m)
			}
			got := r.successors(tc.key, tc.n, nil)
			if len(got) != tc.want {
				t.Fatalf("successors = %v, want %d members", got, tc.want)
			}
			seen := map[string]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("duplicate member %q in successors %v", id, got)
				}
				seen[id] = true
				for _, rm := range tc.removed {
					if id == rm {
						t.Fatalf("removed member %q still assigned", id)
					}
				}
			}
			if tc.want > 0 {
				if _, ok := r.lookup(tc.key, nil); !ok {
					t.Fatal("lookup found nothing on a non-empty ring")
				}
			}
		})
	}
}

// TestRingFilteredLookup: the ok filter skips members without losing
// determinism, and pickBounded falls back to the ring choice when every
// candidate is at capacity.
func TestRingFilteredLookup(t *testing.T) {
	r := ringWith(10, 0)
	banned, _ := r.lookup("some-key", nil)
	got, ok := r.lookup("some-key", func(id string) bool { return id != banned })
	if !ok || got == banned {
		t.Fatalf("filtered lookup returned %q (banned %q)", got, banned)
	}

	loads := map[string]int{}
	for i := 0; i < 10; i++ {
		loads[fmt.Sprintf("peer-%04d", i)] = 100
	}
	id, ok := r.pickBounded("k2", loads, 1, nil, nil)
	if !ok || id == "" {
		t.Fatal("pickBounded refused service with all members at capacity")
	}
	want, _ := r.lookup("k2", nil)
	if id != want {
		t.Fatalf("saturated pickBounded = %q, want ring choice %q", id, want)
	}
}

// TestRingQuickProperties is the generator-driven sweep: random member
// sets and keys hold the structural invariants.
func TestRingQuickProperties(t *testing.T) {
	prop := func(memberSeeds []uint16, keySeed uint32, removeIdx uint8) bool {
		r := newRing(16)
		ids := map[string]bool{}
		for _, s := range memberSeeds {
			id := fmt.Sprintf("m-%d", s%512)
			r.add(id)
			ids[id] = true
		}
		var sorted []string
		for id := range ids {
			sorted = append(sorted, id)
		}
		sort.Strings(sorted)
		if r.size() != len(sorted) {
			return false
		}
		key := fmt.Sprintf("key-%d", keySeed)
		got, ok := r.lookup(key, nil)
		if len(sorted) == 0 {
			return !ok
		}
		if !ok || !ids[got] {
			return false // must land on a live member
		}
		// Removing any member: lookups never return it, others keep working.
		victim := sorted[int(removeIdx)%len(sorted)]
		r.remove(victim)
		got2, ok2 := r.lookup(key, nil)
		if len(sorted) == 1 {
			return !ok2
		}
		return ok2 && got2 != victim && ids[got2] &&
			(got != victim && got2 == got || got == victim)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
